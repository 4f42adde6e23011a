import itertools

import numpy as np
import pytest

from curlest import bench
from curlest import mesh as msh
from curlest import polyspace as ps
from curlest.errors import DegenerateTet, NonConforming, NotAdjacent
from _helpers import (brute_force_faces, check_conforming, edge_faces,
                      face_frame, jittered_cube, loop_box_kuhn, loop_glue, loop_refine,
                      loop_topology, randomly_bisected, relabelled_cube,
                      two_tet_mesh, walk_edge_link)

RNG = np.random.default_rng(7)

REF_VERTS = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                      [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


# ---------------------------------------------------------------------------
# build_mesh
# ---------------------------------------------------------------------------

def test_single_tet_topology():
    m = msh.build_mesh(REF_VERTS, [[0, 1, 2, 3]])
    assert m.n_faces == 4 and m.boundary_face.all()
    assert m.n_edges == 6
    assert (~m.boundary_face).sum() == 0


def test_two_tets_share_face_with_plus_convention():
    m = two_tet_mesh()
    internal = m.internal_faces()
    assert len(internal) == 1
    f = internal[0]
    assert m.face_tets[f, 0] == 0 and m.face_tets[f, 1] == 1
    n = m.face_normals()[f]
    c_f = m.vertices[m.faces[f]].mean(axis=0)
    c_t = m.vertices[m.tets[0]].mean(axis=0)
    assert np.dot(n, c_f - c_t) > 0.0
    assert m.n_edges == 9


def test_cube_face_counts_against_brute_force():
    m = msh.unit_cube_mesh(1)
    count = brute_force_faces(m.tets)
    assert m.n_faces == len(count) == 18
    assert (~m.boundary_face).sum() == sum(1 for c in count.values() if c == 2) == 6


@pytest.mark.parametrize("make", [
    lambda: relabelled_cube(3),
    lambda: randomly_bisected(6, seed=99),
    lambda: msh.refine(relabelled_cube(3), range(0, 162, 5)),
], ids=["relabelled", "bisected", "refined"])
def test_face_codes_match_position_search(make):
    # each face's local index in its plus and minus tet (Mesh.face_local)
    # against a search of the tet's vertex list: the face is the tet less
    # the vertex at that position, and its ascending vertices sit at the
    # positions of TET_FACES there.  Each of the 4 local faces occurs on
    # each side, and a boundary face has no minus index
    m = make()
    for f in range(m.n_faces):
        for side, t in enumerate(m.face_tets[f]):
            if t == msh.BOUNDARY:
                continue
            pos = [list(m.tets[t]).index(v) for v in m.faces[f]]
            i = m.face_local[f, side]
            assert pos == list(ps.TET_FACES[i])
            assert m.tet_faces[t, i] == f
    assert (m.face_local[m.boundary_face, 1] == -1).all()
    for side in (0, 1):
        assert set(m.face_local[m.internal_faces(), side]) == {0, 1, 2, 3}


def test_nonconforming_rejected():
    verts = np.vstack([REF_VERTS, [[1.0, 1.0, 1.0], [-1.0, -1.0, -1.0]]])
    # three tets sharing one face
    with pytest.raises(NonConforming):
        msh.build_mesh(verts, [[0, 1, 2, 3], [1, 2, 3, 4], [1, 2, 3, 5]])


def test_edge_shared_by_two_tets_only_rejected():
    # the tets meet in edge 0 alone: its link is two separate chains
    verts = np.vstack([REF_VERTS, [[0.0, -1.0, 0.0], [0.0, 0.0, -1.0]]])
    with pytest.raises(NonConforming, match="edge 0: 4 boundary faces on link"):
        msh.build_mesh(verts, [[0, 1, 2, 3], [0, 1, 4, 5]])


def test_kuhn_blocks_touching_along_an_edge_rejected():
    verts, tets = loop_glue([loop_box_kuhn(1, origin)[:2]
                             for origin in ((0, 0, 0), (1, 1, 0))])
    with pytest.raises(NonConforming, match="edge 5: 4 boundary faces on link"):
        msh.build_mesh(verts, tets)


def test_kuhn_blocks_touching_at_a_vertex_rejected():
    # every edge link is whole, but the tets around the shared corner form
    # two face-connected groups, so its step-3 patch system has no unique
    # solution
    verts, tets = loop_glue([loop_box_kuhn(1, origin)[:2]
                             for origin in ((0, 0, 0), (1, 1, 1))])
    with pytest.raises(NonConforming,
                       match="vertex 7: 12 boundary faces on link, 2 components"):
        msh.build_mesh(verts, tets)


def test_dangling_vertex_rejected():
    verts = np.vstack([REF_VERTS, [[5.0, 5.0, 5.0]]])
    with pytest.raises(NonConforming):
        msh.build_mesh(verts, [[0, 1, 2, 3]])


def test_degenerate_tet_rejected():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.5, 0.5, 1e-15]])
    with pytest.raises(DegenerateTet):
        msh.build_mesh(verts, [[0, 1, 2, 3]])


def test_exactly_flat_tet_rejected():
    # the degeneracy check reads the geometry that build_mesh seeds on the
    # mesh, whose J^-1 waits for its first read: a singular J raises
    # DegenerateTet, not a linear algebra error
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.5, 0.5, 0.0]])
    with pytest.raises(DegenerateTet):
        msh.build_mesh(verts, [[0, 1, 2, 3]])


def test_build_mesh_seeds_the_geometry():
    # the J and det J of the degeneracy check are the mesh's geometry, the
    # same bits as a geometry built afresh
    m = jittered_cube(2)
    assert m._geom is not None
    fresh = msh._Geometry(m.vertices[m.tets])
    for name in ("v0", "J", "absdet", "sign", "Jinv"):
        assert np.array_equal(getattr(m.geom(), name), getattr(fresh, name))


def test_both_orientations_occur():
    # ascending vertex ids leave det J of either sign, on the Kuhn cube as
    # on a relabelled one; the measure |det J| still sums to the volume
    for m in (msh.unit_cube_mesh(3), relabelled_cube(3)):
        assert set(m.geom().sign) == {-1.0, 1.0}
        assert abs((m.geom().absdet / 6).sum() - 1.0) < 1e-12


def test_every_vertex_order_gives_the_ascending_tet():
    # one tet given in each of its 24 vertex orders, of either orientation,
    # is stored as the same ascending row with the same faces and edges.
    # That row is negatively oriented here: it is kept, not flipped, and
    # det J carries the sign
    verts = REF_VERTS[[2, 0, 3, 1]]
    ref = msh.build_mesh(verts, [[0, 1, 2, 3]])
    for order in itertools.permutations(range(4)):
        m = msh.build_mesh(verts, [order])
        assert m.tets.tolist() == [[0, 1, 2, 3]]
        assert (m.faces == ref.faces).all() and (m.edges == ref.edges).all()
        assert m.geom().sign[0] == -1.0
        assert m.geom().absdet[0] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_unit_cube_counts():
    m = msh.unit_cube_mesh(1)
    assert m.n_tets == 6 and m.n_vertices == 8
    m2 = msh.unit_cube_mesh(2)
    # count-by-construction oracle: 6 per subcube, full lattice of vertices
    assert m2.n_tets == 6 * 2 ** 3 == 48
    assert m2.n_vertices == 3 ** 3 == 27
    assert check_conforming(m2)


def test_unit_cube_volume_and_tags():
    m = msh.unit_cube_mesh(2)
    assert abs((m.geom().absdet / 6).sum() - 1.0) < 1e-12
    assert (m.subdomain_tag == 0).all()
    m2 = msh.unit_cube_mesh(2, tag_fn=lambda c: 1 if c[1] < 0.5 else 2)
    assert set(m2.subdomain_tag) == {1, 2}


def test_l_brick_counts_and_geometry():
    m = msh.l_brick_mesh(1)
    assert m.n_tets == 18
    assert abs((m.geom().absdet / 6).sum() - 3.0) < 1e-12
    assert check_conforming(m)
    # the reentrant edge x=y=0 is present as a mesh edge
    v = m.vertices
    on_axis = [e for e in range(m.n_edges)
               if np.abs(v[m.edges[e]][:, :2]).max() < 1e-14]
    assert len(on_axis) >= 1


def test_l_brick_block_interfaces_conforming():
    m = msh.l_brick_mesh(2)
    # conformity oracle on the glued mesh: every internal face has 2 tets
    assert check_conforming(m)
    # faces on the gluing planes x=0 (y>0) and y=0 (x<0) must be internal
    for f in range(m.n_faces):
        pts = m.vertices[m.faces[f]]
        if np.abs(pts[:, 0]).max() < 1e-14 and pts[:, 1].min() > 1e-14:
            assert not m.boundary_face[f]
        if np.abs(pts[:, 1]).max() < 1e-14 and pts[:, 0].max() < -1e-14:
            assert not m.boundary_face[f]


def bitwise_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_generators_match_loop_construction():
    def tag(c):
        return 1 if (c[1] < 0.5 and c[2] < 0.5) else 2

    for n in (1, 2, 3, 4):
        m = msh.unit_cube_mesh(n, tag_fn=tag)
        ref = msh.build_mesh(*loop_box_kuhn(n, (0, 0, 0), tag))
        for name in ("vertices", "tets", "subdomain_tag"):
            assert bitwise_equal(getattr(m, name), getattr(ref, name)), name
        brick = msh.l_brick_mesh(n)
        ref = msh.build_mesh(*loop_glue(
            [loop_box_kuhn(n, origin)[:2]
             for origin in ((-n, -n, 0), (-n, 0, 0), (0, 0, 0))]))
        assert bitwise_equal(brick.vertices, ref.vertices)
        assert bitwise_equal(brick.tets, ref.tets)


# ---------------------------------------------------------------------------
# topology and refinement against the loop oracles
# ---------------------------------------------------------------------------

TOPOLOGY = ("faces", "face_tets", "tet_faces", "edges", "tet_edges",
            "face_edges", "boundary_face", "boundary_edge", "boundary_vertex")


def assert_topology_matches_loops(m):
    """Integer-equal topology to the dict builder, and every edge's link
    closed exactly when the edge is interior, by the walk around it."""
    topo = loop_topology(m.tets, m.n_vertices)
    for name in TOPOLOGY:
        assert bitwise_equal(getattr(m, name), topo[name]), name
    for e in range(m.n_edges):
        _, closed = walk_edge_link(topo, e)
        assert closed == (not m.boundary_edge[e])


@pytest.mark.parametrize("make", [
    lambda: msh.unit_cube_mesh(1), lambda: msh.unit_cube_mesh(2),
    lambda: msh.unit_cube_mesh(3), lambda: msh.unit_cube_mesh(4),
    lambda: msh.l_brick_mesh(1), lambda: msh.l_brick_mesh(2),
    lambda: jittered_cube(3)],
    ids=["cube1", "cube2", "cube3", "cube4", "lbrick1", "lbrick2", "jittered3"])
def test_topology_matches_loop_builder(make):
    assert_topology_matches_loops(make())


def rowwise_dedupe(keys):
    """``mesh._dedupe`` by np.unique(axis=0) over whole rows."""
    uniq, first, inverse = np.unique(keys, axis=0, return_index=True,
                                     return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return uniq[order], rank[inverse.reshape(-1)]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_packed_dedupe_matches_rowwise_unique(seed):
    # face and edge rows of a relabelled mesh go through the packed int64
    # key; rows too wide for one key and float rows (the glued vertices of
    # the L-brick) go through the row-wise unique
    m = relabelled_cube(3, seed=seed)
    faces = np.sort(m.tets[:, ps.TET_FACES], axis=2).reshape(-1, 3)
    edges = np.sort(m.tets[:, ps.TET_EDGES], axis=2).reshape(-1, 2)
    wide = faces + 2 ** 22           # (2^22)^3 = 2^66 exceeds int64
    floats = RNG.integers(0, 4, (200, 3)) / 3.0
    for keys in (faces, edges, wide, floats):
        got, want = msh._dedupe(keys), rowwise_dedupe(keys)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def octahedron_mesh():
    """Eight corner tets around the origin; each has three longest edges of
    equal length, so refining it exercises the tie-break of the longest
    edge (Kuhn meshes and their bisections have no ties)."""
    verts = np.vstack([np.zeros(3), np.eye(3), -np.eye(3)])
    return msh.build_mesh(verts, [
        [0, 1 + 3 * sx, 2 + 3 * sy, 3 + 3 * sz]
        for sx, sy, sz in itertools.product((0, 1), repeat=3)])


@pytest.mark.parametrize("make", [
    lambda: msh.unit_cube_mesh(1),
    lambda: bench.builtin_problems()["cube_jump_mu_100"].initial_mesh(),
    octahedron_mesh], ids=["cube", "cube_jump_mu_100", "octahedron"])
def test_refinement_matches_loop_bisection(make):
    m = make()
    rng = np.random.default_rng(17)
    for _ in range(5):
        marked = set(rng.choice(m.n_tets, size=max(1, m.n_tets // 3),
                                replace=False).tolist())
        r = msh.refine(m, marked)
        verts, tets, tags, levels, parents = loop_refine(m, marked)
        ref = msh.build_mesh(verts, tets, tags, refinement_levels=levels,
                             parents=parents)
        for name in ("vertices", "tets", "subdomain_tag", "refinement_level",
                     "parent"):
            assert bitwise_equal(getattr(r, name), getattr(ref, name)), name
        assert_topology_matches_loops(r)
        m = r


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------

def test_refine_empty_is_identity():
    m = msh.unit_cube_mesh(1)
    r = msh.refine(m, set())
    assert r.n_tets == m.n_tets and r.n_vertices == m.n_vertices
    assert (r.parent == np.arange(m.n_tets)).all()


def test_refine_single_tet():
    m = msh.build_mesh(REF_VERTS, [[0, 1, 2, 3]])
    r = msh.refine(m, {0})
    assert r.n_tets == 2
    assert (~r.boundary_face).sum() == 1
    assert (r.refinement_level == 1).all()
    assert (r.parent == 0).all()


def test_refine_all_cube():
    m = msh.unit_cube_mesh(1)
    r = msh.refine(m, set(range(m.n_tets)))
    assert 12 <= r.n_tets <= 96
    assert check_conforming(r)
    assert abs((r.geom().absdet / 6).sum() - 1.0) < 1e-12


def test_refine_marks_strictly_increase_and_tags_inherited():
    m = msh.unit_cube_mesh(2, tag_fn=lambda c: 1 if c[2] < 0.5 else 2)
    r = msh.refine(m, {0, 5, 17})
    assert r.n_tets > m.n_tets
    # tags inherited through the genealogy
    for t in range(r.n_tets):
        assert r.subdomain_tag[t] == m.subdomain_tag[r.parent[t]]
    # material interface z=0.5 stays mesh-aligned: every tet is on one side
    for t, tet in enumerate(r.tets):
        z = r.vertices[tet][:, 2]
        if r.subdomain_tag[t] == 1:
            assert z.max() <= 0.5 + 1e-12
        else:
            assert z.min() >= 0.5 - 1e-12


def test_refine_rejects_bad_ids():
    m = msh.unit_cube_mesh(1)
    with pytest.raises(ValueError):
        msh.refine(m, {99})


def test_repeated_refinement_stays_conforming():
    m = msh.unit_cube_mesh(1)
    rng = np.random.default_rng(3)
    for _ in range(4):
        marked = set(rng.choice(m.n_tets, size=max(1, m.n_tets // 3),
                                replace=False).tolist())
        m = msh.refine(m, marked)
        assert check_conforming(m)
    assert abs((m.geom().absdet / 6).sum() - 1.0) < 1e-12


def test_bisection_shape_quality_stabilizes():
    # longest-edge bisection settles into finitely many similarity classes;
    # the worst volume/diameter^3 ratio must stop degrading after a few rounds
    rng = np.random.default_rng(1)
    m = msh.unit_cube_mesh(1)
    qualities = []
    for _ in range(8):
        marked = set(rng.choice(m.n_tets, size=max(1, m.n_tets // 4),
                                replace=False).tolist())
        m = msh.refine(m, marked)
        qualities.append((m.geom().absdet / 6 / m.tet_diameters() ** 3).min())
    assert qualities[-1] >= 0.8 * qualities[2]
    assert qualities[-1] > 1e-3


# ---------------------------------------------------------------------------
# frames and edge link
# ---------------------------------------------------------------------------

def test_face_frame_orthonormal_and_deterministic():
    # the frame of the step-2 oracles in _helpers, which store multipliers in
    # scaled face-frame monomials
    m = msh.unit_cube_mesh(1)
    for f in range(m.n_faces):
        fr = face_frame(m, f)
        assert abs(np.dot(fr.t1, fr.t2)) < 1e-14
        assert abs(np.linalg.norm(fr.t1) - 1) < 1e-14
        assert abs(np.linalg.norm(fr.t2) - 1) < 1e-14
        assert np.linalg.norm(np.cross(fr.t1, fr.t2) - fr.n) < 1e-14
    fr1 = face_frame(m, 3)
    fr2 = face_frame(m, 3)
    assert (fr1.t1 == fr2.t1).all() and (fr1.t2 == fr2.t2).all() \
        and (fr1.n == fr2.n).all()


def test_edge_face_normals_orthogonality():
    m = msh.unit_cube_mesh(1)
    for e in range(m.n_edges):
        t = m.edge_tangent(e)
        for f in edge_faces(m, e):
            n_ef, n_fe = msh.edge_face_normals(m, e, f)
            nf = m.face_normals()[f]
            assert abs(np.dot(n_ef, t)) < 1e-12
            assert abs(np.dot(n_ef, nf)) < 1e-12
            assert abs(abs(np.dot(nf, n_fe)) - 1.0) < 1e-12
            # outwardness: points away from the opposite vertex
            opp = [v for v in m.faces[f] if v not in m.edges[e]][0]
            mid = m.vertices[m.edges[e]].mean(axis=0)
            assert np.dot(n_ef, mid - m.vertices[opp]) > 0.0


def test_edge_face_normals_not_adjacent():
    m = msh.unit_cube_mesh(1)
    e = 0
    f = [f for f in range(m.n_faces) if f not in edge_faces(m, e)][0]
    with pytest.raises(NotAdjacent):
        msh.edge_face_normals(m, e, f)


def test_edge_links_closed_and_open():
    m = msh.unit_cube_mesh(2)
    topo = loop_topology(m.tets, m.n_vertices)
    for e in range(m.n_edges):
        order, closed = walk_edge_link(topo, e)
        assert sorted(order) == np.nonzero((m.tet_edges == e).any(axis=1))[0].tolist()
        assert closed == (not m.boundary_edge[e])


def test_single_valued_differences_telescope():
    # brute-force cycle walk: signed sums of single-valued jumps vanish
    m = msh.unit_cube_mesh(1)
    rng = np.random.default_rng(11)
    psi = rng.standard_normal(m.n_tets)
    for e in m.internal_edges():
        total = 0.0
        for f in edge_faces(m, e):
            tp, tm = m.face_tets[f]
            _, n_fe = msh.edge_face_normals(m, e, f)
            sign = float(np.dot(m.face_normals()[f], n_fe))
            assert abs(abs(sign) - 1.0) < 1e-12
            total += sign * (psi[tp] - psi[tm])
        assert abs(total) < 1e-12 * max(1.0, np.abs(psi).max())


def test_face_normals_point_out_of_plus():
    # every face, boundary faces too, against the centroid rule: the unit
    # normal of the face's plane turned to point from T+'s centroid to the
    # face's
    for m in (msh.unit_cube_mesh(3), relabelled_cube(3, 2), jittered_cube(3),
              msh.l_brick_mesh(2), randomly_bisected(3, 7)):
        n = m.face_normals()
        v = m.vertices[m.faces]
        c_f = v.mean(axis=1)
        c_t = m.vertices[m.tets[m.face_tets[:, 0]]].mean(axis=1)
        want = np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
        want /= np.linalg.norm(want, axis=1)[:, None]
        want *= np.sign(np.einsum("fa,fa->f", want, c_f - c_t))[:, None]
        assert np.array_equal(n, want)
        assert (np.einsum("fa,fa->f", n, c_f - c_t) > 0.0).all()


# ---------------------------------------------------------------------------
# I/O
# ---------------------------------------------------------------------------

def test_text_roundtrip(tmp_path):
    m = msh.unit_cube_mesh(2, tag_fn=lambda c: int(c[0] > 0.5))
    path = tmp_path / "mesh.txt"
    msh.write_mesh_text(m, path)
    m2 = msh.read_mesh_text(path)
    assert m2.n_tets == m.n_tets and m2.n_vertices == m.n_vertices
    assert (m2.subdomain_tag == m.subdomain_tag).all()
    assert np.abs(m2.vertices - m.vertices).max() == 0.0


def test_text_reader_rejects_truncated_file(tmp_path):
    m = msh.unit_cube_mesh(1)
    path = tmp_path / "mesh.txt"
    msh.write_mesh_text(m, path)
    path.write_text(path.read_text().rsplit("\n", 2)[0] + "\n")
    with pytest.raises(NonConforming, match="header announces 8 vertices and "
                       "6 tets, 54 numbers; found 49"):
        msh.read_mesh_text(path)


def test_text_reader_rejects_extra_tet_rows(tmp_path):
    path = tmp_path / "extra.txt"
    path.write_text("4 1\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n0 1 2 3 0\n0 1 3 2 0\n")
    with pytest.raises(NonConforming, match="1 tets, 17 numbers; found 22"):
        msh.read_mesh_text(path)


@pytest.mark.parametrize("text, message", [
    ("4 1\n0 0 0\n1 0 0\n0 1 0\nx 0 1\n0 1 2 3 0\n",
     "vertex coordinate 'x' is not a number"),
    ("4 1\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n0 1 2 3 1.5\n",
     "tet entry '1.5' is not a 64-bit integer"),
    ("four 1\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n0 1 2 3 0\n",
     "header count 'four' is not a 64-bit integer"),
    ("99999999999999999999 1\n0 0 0\n",
     "header count '99999999999999999999' is not a 64-bit integer"),
], ids=["coordinate", "tet-tag", "header", "header-overflow"])
def test_text_reader_names_a_bad_token(tmp_path, text, message):
    path = tmp_path / "token.txt"
    path.write_text(text)
    with pytest.raises(NonConforming, match=f"token.txt: {message}"):
        msh.read_mesh_text(path)


def test_text_reader_validates(tmp_path):
    path = tmp_path / "bad.txt"
    # face (1,2,3) shared by three tets
    path.write_text("6 3\n" + "\n".join(
        ["0 0 0", "1 0 0", "0 1 0", "0 0 1", "1 1 1", "-1 -1 -1"]) +
        "\n0 1 2 3 0\n1 2 3 4 0\n1 2 3 5 0\n")
    with pytest.raises(NonConforming):
        msh.read_mesh_text(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_vertex_rejected(bad):
    m = msh.unit_cube_mesh(1)
    v = m.vertices.copy()
    v[3, 1] = bad
    v[5, 2] = bad
    with pytest.raises(NonConforming, match="vertex 3 has non-finite coordinates"):
        msh.build_mesh(v, m.tets)


def test_text_reader_rejects_nan_vertex(tmp_path):
    path = tmp_path / "nan.txt"
    path.write_text("5 2\n0 0 0\n1 0 0\n0 1 0\nnan 0 1\n1 1 1\n"
                    "0 1 2 3 0\n1 2 3 4 0\n")
    with pytest.raises(NonConforming, match="vertex 3 has non-finite"):
        msh.read_mesh_text(path)


def test_vtk_export(tmp_path):
    m = msh.unit_cube_mesh(1)
    path = tmp_path / "mesh.vtk"
    msh.write_vtk(m, path, {"eta_T": np.arange(m.n_tets, dtype=float)})
    text = path.read_text()
    assert "UNSTRUCTURED_GRID" in text
    assert "eta_T" in text
    assert text.count("\n10") + text.count("10\n") >= m.n_tets
    # the cells are written positively oriented, though half the stored
    # (ascending) tets of the Kuhn cube are not
    lines = text.splitlines()
    at = lines.index(f"CELLS {m.n_tets} {5 * m.n_tets}")
    cells = np.array([line.split()[1:] for line in lines[at + 1:at + 1 + m.n_tets]], dtype=int)
    v = m.vertices[cells]
    assert (np.linalg.det(v[:, 1:] - v[:, :1]) > 0).all()
    assert (np.sort(cells, axis=1) == m.tets).all()
