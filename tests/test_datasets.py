import json
import math
import mmap
import os
import pickle
import struct
import tracemalloc

import numpy as np
import pytest

from subjmap.datasets import (
    MultiSubjectDataset,
    SubjectData,
    _ALL,
    _PackedRows,
    _load_parts,
    _same_rows,
    _split_plan,
    _take_all,
    center_subjects,
    half_moons,
    load_dataset,
    rotate_subjects,
    rotation_matrix,
    save_dataset,
    split,
    stacked,
    synth_group_dataset,
)
from subjmap.cli import SCHEMAS
from subjmap.errors import ConfigError, LabelOutOfRange, NonFiniteError, ParseError, ShapeError
from subjmap.linalg import SeededRng
from subjmap.models import ModelSpec, build_model


def framed(header: dict, body: bytes = b"") -> bytes:
    """A packed file written by hand: magic, header length, JSON header, padding to 8, body."""
    text = json.dumps(header).encode("utf-8")
    prefix = b"SMDS" + struct.pack("<I", len(text)) + text
    return prefix + bytes(-len(prefix) % 8) + body


def ks_two_sample_p(a, b):
    """Oracle: two-sample KS p-value via the asymptotic Kolmogorov series."""
    a = np.sort(a)
    b = np.sort(b)
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    d = np.abs(cdf_a - cdf_b).max()
    en = math.sqrt(a.size * b.size / (a.size + b.size))
    lam = (en + 0.12 + 0.11 / en) * d
    return max(0.0, min(1.0, 2 * sum((-1) ** (k - 1) * math.exp(-2 * k * k * lam * lam)
                                     for k in range(1, 101))))


class TestHalfMoons:
    def test_noiseless_geometry(self):
        samples, labels = half_moons(8, 0.0, 0)
        upper = samples[labels == 0]
        lower = samples[labels == 1]
        np.testing.assert_allclose(np.linalg.norm(upper, axis=1), 1.0, atol=1e-12)
        assert np.all(upper[:, 1] >= -1e-12)
        # lower arc: unit circle shifted by (1, 0.5), reflected downward
        np.testing.assert_allclose(
            np.linalg.norm(lower - np.array([1.0, 0.5]), axis=1), 1.0, atol=1e-12)
        assert np.all(lower[:, 1] <= 0.5 + 1e-12)

    def test_paper_configuration_counts(self):
        samples, labels = half_moons(1000, 0.1, 42)
        assert samples.shape == (1000, 2)
        assert np.bincount(labels).tolist() == [500, 500]

    def test_odd_count_extra_goes_to_class_zero(self):
        _, labels = half_moons(7, 0.0, 0)
        assert np.bincount(labels).tolist() == [4, 3]

    def test_seed_determinism(self):
        a, _ = half_moons(100, 0.2, 5)
        b, _ = half_moons(100, 0.2, 5)
        assert np.array_equal(a, b)


class TestRotateSubjects:
    def test_zero_angle_is_identity(self):
        samples, labels = half_moons(20, 0.0, 1)
        ds, truth = rotate_subjects(samples, labels, 1, seed=0, angles=[0.0])
        np.testing.assert_allclose(ds.subjects[0].data, samples, atol=1e-15)

    def test_pi_angle_is_point_reflection(self):
        samples, labels = half_moons(20, 0.0, 1)
        ds, _ = rotate_subjects(samples, labels, 1, seed=0, angles=[math.pi])
        np.testing.assert_allclose(ds.subjects[0].data, -samples, atol=1e-12)

    def test_paper_scale(self):
        samples, labels = half_moons(1000, 0.1, 42)
        ds, truth = rotate_subjects(samples, labels, 100, seed=3)
        assert ds.n_subjects == 100
        assert all(rec.n_timesteps == 1000 for rec in ds.subjects)
        assert np.all(np.abs(truth.angles) <= 2 * math.pi)

    def test_rotation_preserves_pairwise_distances(self):
        samples, labels = half_moons(60, 0.1, 2)
        ds, _ = rotate_subjects(samples, labels, 5, seed=9)
        base = np.linalg.norm(samples[:, None] - samples[None, :], axis=2)
        for rec in ds.subjects:
            dist = np.linalg.norm(rec.data[:, None] - rec.data[None, :], axis=2)
            assert np.abs(dist - base).max() < 1e-10

    def test_procrustes_recovers_relative_angles(self):
        # oracle: closed-form 2-D Procrustes rotation between subjects
        samples, labels = half_moons(200, 0.0, 4)
        ds, truth = rotate_subjects(samples, labels, 6, seed=11)
        ref = ds.subjects[0].data
        for i, rec in enumerate(ds.subjects):
            cross = rec.data.T @ ref
            theta = math.atan2(cross[0, 1] - cross[1, 0], cross[0, 0] + cross[1, 1])
            expected = (truth.angles[i] - truth.angles[0]) % (2 * math.pi)
            # our rotation convention: subject i = base @ R(theta_i).T
            recovered = theta % (2 * math.pi)
            delta = min(abs(recovered - expected), 2 * math.pi - abs(recovered - expected))
            assert delta < 1e-8

    def test_rotation_matrix_layout(self):
        theta = 0.37
        r = rotation_matrix(theta)
        np.testing.assert_allclose(
            r, [[math.cos(theta), math.sin(theta)], [-math.sin(theta), math.cos(theta)]])


class TestSplit:
    def make(self, t=1000, subjects=3):
        rng = SeededRng(0)
        recs = [SubjectData(f"s{i}", rng.normal((t, 2)), np.arange(t) % 2) for i in range(subjects)]
        return MultiSubjectDataset(recs, {})

    def test_paper_timestep_sizes(self):
        tr, va, te = split(self.make(1000), "timestep_fraction", test_fraction=0.8,
                           val_fraction=0.1, seed=1)
        assert (tr.subjects[0].n_timesteps, va.subjects[0].n_timesteps,
                te.subjects[0].n_timesteps) == (180, 20, 800)

    def test_first_second_half_sizes(self):
        tr, va, te = split(self.make(1976), "first_second_half")
        assert va is None
        assert tr.subjects[0].n_timesteps == 988 and te.subjects[0].n_timesteps == 988

    def test_subject_holdout_sizes(self):
        rng = SeededRng(1)
        recs = [SubjectData(f"s{i:03d}", rng.normal((2, 2))) for i in range(368)]
        ds = MultiSubjectDataset(recs, {})
        tr, va, te = split(ds, "subject_holdout", n_holdout=74, seed=2)
        assert va is None and tr.n_subjects == 294 and te.n_subjects == 74
        assert set(tr.subject_ids).isdisjoint(te.subject_ids)

    def test_partitions_disjoint_and_exhaustive(self):
        ds = self.make(101)
        marker = np.arange(101, dtype=float)
        for rec in ds.subjects:
            rec.data[:, 0] = marker
        tr, va, te = split(ds, "timestep_fraction", test_fraction=0.5, val_fraction=0.2, seed=3)
        pieces = [part.subjects[0].data[:, 0] for part in (tr, va, te)]
        combined = np.sort(np.concatenate(pieces))
        np.testing.assert_array_equal(combined, marker)

    def test_same_indices_across_subjects(self):
        ds = self.make(50)
        tr, _, _ = split(ds, "timestep_fraction", test_fraction=0.5, val_fraction=0.1, seed=4)
        a = tr.subjects[0].labels
        for rec in tr.subjects[1:]:
            np.testing.assert_array_equal(rec.labels, a)

    def test_invalid_fraction(self):
        with pytest.raises(ConfigError, match=r"test_fraction must lie in \(0, 1\), got 1\.5"):
            split(self.make(10), "timestep_fraction", test_fraction=1.5, val_fraction=0.1)
        with pytest.raises(ConfigError, match=r"n_holdout 99 must lie in \[1, 3\)"):
            split(self.make(10), "subject_holdout", n_holdout=99)

    def test_none_returns_the_dataset_itself(self):
        ds = self.make(10)
        tr, va, te = split(ds, "none")
        assert tr is ds and va is None and te is None

    @pytest.mark.parametrize("scheme", ["bogus", "timestep fraction", None])
    def test_unknown_scheme_is_config_error(self, scheme):
        # an unknown scheme object raised TypeError, and a name was checked only by the CLI
        with pytest.raises(ConfigError, match=f"^unknown split scheme {scheme!r}$"):
            split(self.make(10), scheme)

    def test_defaults(self):
        ds = self.make(100)
        for got, want in zip(split(ds, "timestep_fraction"),
                             split(ds, "timestep_fraction", test_fraction=0.8, val_fraction=0.1,
                                   seed=0)):
            assert np.array_equal(got.block, want.block)
        with pytest.raises(ConfigError, match=r"^n_holdout 0 must lie in \[1, 3\)"):
            split(ds, "subject_holdout")

    @pytest.mark.parametrize("scheme,own_keys", [
        ("timestep_fraction", {"test_fraction": 0.5, "val_fraction": 0.2, "seed": 5}),
        ("first_second_half", {}),
        ("subject_holdout", {"n_holdout": 1, "seed": 5}),
        ("none", {}),
    ])
    def test_takes_the_config_section_as_keywords(self, scheme, own_keys):
        # every data.split key is a keyword of split, and each scheme reads only its own
        section = {key: default
                   for key, (_, default) in SCHEMAS["train"]["data"]["split"].items()}
        section.update(scheme=scheme, test_fraction=0.5, val_fraction=0.2, n_holdout=1)
        ds = self.make(10)
        for got, want in zip(split(ds, **section, seed=5), split(ds, scheme, **own_keys)):
            assert (got is None) == (want is None)
            assert got is None or (got.subject_ids == want.subject_ids
                                   and np.array_equal(got.block, want.block))


class TestSynthGroupDataset:
    def test_deterministic(self):
        a, _ = synth_group_dataset(8, 30, 10, 3, 1.0, seed=4)
        b, _ = synth_group_dataset(8, 30, 10, 3, 1.0, seed=4)
        for ra, rb in zip(a.subjects, b.subjects):
            assert np.array_equal(ra.data, rb.data)

    def test_null_effect_groups_identical_in_law(self):
        _, truth = synth_group_dataset(200, 5, 8, 4, 0.0, seed=9)
        proj = truth.scalings @ SeededRng(1).normal(4)
        p = ks_two_sample_p(proj[truth.groups == 0], proj[truth.groups == 1])
        assert p > 0.01

    def test_zero_noise_ground_truth_reconstruction(self):
        data, truth = synth_group_dataset(6, 40, 12, 3, 0.5, seed=2, noise_level=0.0)
        mixed = truth.latents @ truth.basis_u
        for i, rec in enumerate(data.subjects):
            recon = (mixed * truth.scalings[i]) @ truth.basis_v.T
            np.testing.assert_allclose(rec.data, recon, atol=1e-12)

    def test_planted_effect_linearly_separable(self):
        # oracle probe: project true scalings on the planted direction, threshold at midpoint
        _, truth = synth_group_dataset(80, 5, 8, 4, 2.0, seed=7)
        proj = truth.scalings @ truth.direction
        mid = (proj[truth.groups == 0].mean() + proj[truth.groups == 1].mean()) / 2
        pred = (proj > mid).astype(int)
        assert (pred == truth.groups).mean() >= 0.9

    def test_groups_alternate_and_balance(self):
        data, truth = synth_group_dataset(10, 5, 6, 2, 1.0, seed=0)
        assert truth.groups.tolist() == [0, 1] * 5
        assert data.groups().sum() == 5

    def test_odd_subject_count_rejected(self):
        with pytest.raises(ConfigError, match="n_subjects must be even and positive"):
            synth_group_dataset(7, 5, 6, 2, 1.0, seed=0)


class TestSerialization:
    def make(self):
        rng = SeededRng(3)
        recs = [
            SubjectData("alpha", rng.normal((7, 4)), np.arange(7), 0),
            SubjectData("beta", rng.normal((7, 4)), None, None),
        ]
        return MultiSubjectDataset(recs, {"n_features": 4})

    def test_binary_roundtrip(self, tmp_path):
        ds = self.make()
        path = tmp_path / "data.smds"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert loaded.subject_ids == ds.subject_ids
        for a, b in zip(ds.subjects, loaded.subjects):
            assert np.array_equal(a.data, b.data)
            assert a.group == b.group
            if a.labels is None:
                assert b.labels is None
            else:
                assert np.array_equal(a.labels, b.labels)

    def test_truncated_binary_reports_offset(self, tmp_path):
        path = tmp_path / "data.smds"
        save_dataset(self.make(), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 10])
        with pytest.raises(ParseError) as err:
            load_dataset(path)
        assert "byte" in str(err.value)

    def test_failed_save_keeps_previous_file(self, tmp_path):
        path = tmp_path / "data.smds"
        save_dataset(self.make(), path)
        before = path.read_bytes()
        broken = self.make()
        broken.subjects[1].labels = np.array(["x"])  # a label that is no integer
        with pytest.raises(ValueError):
            save_dataset(broken, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["data.smds"]

    @pytest.mark.parametrize("label", [2 ** 32 + 1, 2 ** 31, -2 ** 31 - 1])
    def test_label_outside_int32_is_named_error_and_leaves_no_file(self, tmp_path, label):
        # 2**32 + 1 used to be written wrapped and to load back as 1
        ds = MultiSubjectDataset([SubjectData("fits", np.zeros((2, 1)), [0, 1]),
                                  SubjectData("wide", np.zeros((2, 1)), [0, label])])
        with pytest.raises(LabelOutOfRange, match="'wide'"):
            save_dataset(ds, tmp_path / "data.smds")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("group", [-5, 2 ** 31])
    def test_group_the_loader_rejects_is_not_saved(self, tmp_path, group):
        # such a group used to load back as None (-5) or fail in struct.pack (2**31)
        ds = MultiSubjectDataset([SubjectData("a", np.zeros((2, 1)), None, group)])
        with pytest.raises(ParseError, match="'group' must be an integer in \\[0, 2\\*\\*31\\)"):
            save_dataset(ds, tmp_path / "data.smds")
        assert list(tmp_path.iterdir()) == []

    def test_int32_extreme_labels_roundtrip(self, tmp_path):
        ds = MultiSubjectDataset([SubjectData("a", np.zeros((2, 1)), [-2 ** 31, 2 ** 31 - 1])])
        save_dataset(ds, tmp_path / "data.smds")
        assert load_dataset(tmp_path / "data.smds").labels.tolist() == [-2 ** 31, 2 ** 31 - 1]

    def test_non_finite_data_is_named_error(self, tmp_path):
        ds = self.make()
        ds.subjects[0].data[0, 0] = np.nan
        path = tmp_path / "data.smds"
        save_dataset(ds, path)
        with pytest.raises(NonFiniteError, match="alpha"):
            load_dataset(path)

    @staticmethod
    def fails_before_allocating(path, match):
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match=match):
                load_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_oversized_header_fails_before_allocating(self, tmp_path):
        # T = 2**31 rows of 4 features claims 64 GiB of data in a file of a few bytes
        path = tmp_path / "data.smds"
        path.write_bytes(framed({"format_version": 2, "n_features": 4, "subjects": [
            {"subject_id": "a", "group": None, "timesteps": 2**31, "labelled": True}]},
            bytes(64)))
        self.fails_before_allocating(path, r"accounts for 773094\d{5} bytes, the file has \d+$")

    def test_non_utf8_subject_id(self, tmp_path):
        path = tmp_path / "data.smds"
        save_dataset(self.make(), path)
        path.write_bytes(path.read_bytes().replace(b"alpha", b"\xff\xfeaph", 1))
        self.fails_before_allocating(path, "unreadable packed dataset header: 'utf-8' codec")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "data.smds"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ParseError):
            load_dataset(path)

    def test_trailing_byte_is_parse_error(self, tmp_path):
        path = tmp_path / "data.smds"
        save_dataset(self.make(), path)
        raw = path.read_bytes()
        path.write_bytes(raw + b"\x00")
        with pytest.raises(ParseError, match=rf"accounts for {len(raw)} bytes, the file has "
                                             rf"{len(raw) + 1}$"):
            load_dataset(path)

    @pytest.mark.parametrize("key,value,match", [
        ("format_version", 1, "has format_version 1; this reader reads 2"),
        ("n_features", 0, "needs 'n_features' \\(an integer >= 1\\)"),
        ("subjects", {}, "and 'subjects' \\(a list\\)"),
        (0, "alpha", "'subjects' must be a list of objects"),
        ("subject_id", 7, "'subject_id' must be a string"),
        ("group", 2 ** 31, "'group' must be an integer in \\[0, 2\\*\\*31\\) or null"),
        ("group", -1, "'group' must be an integer"),
        ("group", True, "'group' must be an integer"),
        ("timesteps", 7.0, "subject 'alpha' needs 'timesteps' \\(an integer >= 0\\)"),
        ("labelled", None, "needs .* and 'labelled' \\(a bool\\)"),
    ])
    def test_malformed_header_field_is_parse_error(self, tmp_path, key, value, match):
        # the header's subject entries pass the CSV manifest's checks and more
        path = tmp_path / "data.smds"
        save_dataset(self.make(), path)
        raw = path.read_bytes()
        header_len = int.from_bytes(raw[4:8], "little")
        header = json.loads(raw[8:8 + header_len])
        if key in ("format_version", "n_features", "subjects"):
            header[key] = value
        elif key == 0:
            header["subjects"][0] = value
        elif value is None:
            del header["subjects"][0][key]
        else:
            header["subjects"][0][key] = value
        path.write_bytes(framed(header, raw[8 + header_len + (-(8 + header_len)) % 8:]))
        with pytest.raises(ParseError, match=f"^packed dataset header.*{match}"):
            load_dataset(path)

    def test_version_1_file_is_parse_error(self, tmp_path):
        # the first layout: per-subject struct headers between the subjects' rows
        path = tmp_path / "data.smds"
        path.write_bytes(b"SMDS" + struct.pack("<HII", 1, 2, 1) + struct.pack("<I", 1) + b"a"
                         + struct.pack("<iI", -1, 1) + struct.pack("<2d", 1.0, 2.0)
                         + struct.pack("<B", 0))
        with pytest.raises(ParseError):
            load_dataset(path)

    def test_header_then_one_aligned_data_block_then_labels(self, tmp_path):
        ds = self.make()
        path = tmp_path / "data.smds"
        save_dataset(ds, path)
        raw = path.read_bytes()
        header_len = int.from_bytes(raw[4:8], "little")
        assert json.loads(raw[8:8 + header_len]) == {
            "format_version": 2, "n_features": 4, "subjects": [
                {"subject_id": "alpha", "group": 0, "timesteps": 7, "labelled": True},
                {"subject_id": "beta", "group": None, "timesteps": 7, "labelled": False}]}
        start = 8 + header_len + (-(8 + header_len)) % 8
        assert start % 8 == 0 and raw[8 + header_len:start] == bytes(start - 8 - header_len)
        block = np.memmap(path, "<f8", "r", offset=start, shape=ds.block.shape)
        assert np.array_equal(block, load_dataset(path).block)
        assert raw[start + ds.block.nbytes:] == np.arange(7, dtype="<i4").tobytes()

    def test_csv_manifest_roundtrip(self, tmp_path):
        rng = SeededRng(5)
        data = rng.normal((4, 3))
        np.savetxt(tmp_path / "subj.csv", data, delimiter=",")
        (tmp_path / "labels.txt").write_text("0 1 0 1")
        manifest = {
            "n_features": 3,
            "subjects": [{"subject_id": "x", "csv_path": "subj.csv",
                          "group": 1, "label_path": "labels.txt"}],
        }
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        ds = load_dataset(tmp_path / "manifest.json", fmt="csv")
        np.testing.assert_allclose(ds.subjects[0].data, data)
        assert ds.subjects[0].group == 1
        assert ds.subjects[0].labels.tolist() == [0, 1, 0, 1]

    def test_manifest_wrong_width_names_subject(self, tmp_path):
        np.savetxt(tmp_path / "subj.csv", np.ones((3, 2)), delimiter=",")
        manifest = {"n_features": 5,
                    "subjects": [{"subject_id": "oddball", "csv_path": "subj.csv"}]}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ShapeError, match="has width 2, manifest says 5") as err:
            load_dataset(tmp_path / "manifest.json", fmt="csv")
        assert "oddball" in str(err.value)

    @pytest.mark.parametrize("n_features", [3, None])
    def test_manifest_empty_csv_is_shape_error(self, tmp_path, n_features):
        # with n_features the empty file raised a raw IndexError from data.shape[1]
        (tmp_path / "subj.csv").write_text("")
        manifest = {"subjects": [{"subject_id": "x", "csv_path": "subj.csv"}]}
        if n_features is not None:
            manifest["n_features"] = n_features
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ShapeError, match="'x' data must be 2-D"):
            load_dataset(tmp_path / "manifest.json", fmt="csv")

    def test_manifest_ragged_csv(self, tmp_path):
        (tmp_path / "subj.csv").write_text("1,2,3\n4,5\n")
        manifest = {"subjects": [{"subject_id": "x", "csv_path": "subj.csv"}]}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ParseError, match="subj.csv"):
            load_dataset(tmp_path / "manifest.json", fmt="csv")

    def test_manifest_without_subjects(self, tmp_path):
        (tmp_path / "manifest.json").write_text(json.dumps({"subjects": []}))
        with pytest.raises(ShapeError, match="at least one subject"):
            load_dataset(tmp_path / "manifest.json", fmt="csv")

    @pytest.mark.parametrize("field,manifest,labels", [
        # a non-integer label token escaped as a raw ValueError
        ("label_path", {}, "0 1 x 1"),
        ("label_path", {}, "0 1.5 0 1"),
        # labels outside the packed format's int32 were saved wrapped
        ("label_path", {}, "0 4294967297 0 1"),
        ("label_path", {}, "0 -2147483649 0 1"),
        # "subjects": 5 escaped as a raw TypeError
        ("subjects", {"subjects": 5}, None),
        ("subjects", {"subjects": ["x"]}, None),
        # these loaded and broke groups() comparisons or save_dataset later
        ("group", {"group": "x"}, None),
        ("group", {"group": True}, None),
        ("group", {"group": -1}, None),
        ("subject_id", {"subject_id": 3}, None),
        ("csv_path", {"csv_path": ["subj.csv"]}, None),
        # "2" reported "has width 2, manifest says 2"
        ("n_features", {"n_features": "2"}, None),
    ])
    def test_manifest_field_of_wrong_type_is_parse_error(self, tmp_path, field, manifest, labels):
        np.savetxt(tmp_path / "subj.csv", np.ones((4, 2)), delimiter=",")
        entry = {"subject_id": "x", "csv_path": "subj.csv"}
        if labels is not None:
            (tmp_path / "labels.txt").write_text(labels)
            entry["label_path"] = "labels.txt"
        payload = {"subjects": [entry]}
        for key, value in manifest.items():
            (payload if key in ("subjects", "n_features") else entry)[key] = value
        (tmp_path / "manifest.json").write_text(json.dumps(payload))
        with pytest.raises(ParseError, match=field) as err:
            load_dataset(tmp_path / "manifest.json", fmt="csv")
        assert "manifest.json" in str(err.value)
        assert labels is None or "subject 'x'" in str(err.value)

    def test_manifest_missing_field(self, tmp_path):
        (tmp_path / "manifest.json").write_text(json.dumps({"subjects": [{"group": 1}]}))
        with pytest.raises(ParseError, match="'subject_id' must be a string"):
            load_dataset(tmp_path / "manifest.json", fmt="csv")


def test_center_subjects_removes_means():
    rng = SeededRng(6)
    ds = MultiSubjectDataset(
        [SubjectData("a", rng.normal((30, 3)) + 5.0), SubjectData("b", rng.normal((30, 3)))], {})
    centered = center_subjects(ds)
    for rec in centered.subjects:
        assert np.abs(rec.data.mean(axis=0)).max() < 1e-12


def test_stacked_orders_and_labels():
    ds = MultiSubjectDataset(
        [SubjectData("a", np.ones((2, 2)), np.array([0, 1])),
         SubjectData("b", 2 * np.ones((3, 2)), np.array([1, 1, 0]))], {})
    x, idx, labels = stacked(ds)
    assert x.shape == (5, 2)
    assert idx.tolist() == [0, 0, 1, 1, 1]
    assert labels.tolist() == [0, 1, 1, 1, 0]


def _reference_stacked(dataset, model=None):
    """The per-subject concatenation that ``stacked`` replaced, kept as its oracle."""
    xs, idxs = [], []
    for row, rec in enumerate(dataset.subjects):
        xs.append(rec.data)
        index = row if model is None else int(model.index_of([rec.subject_id])[0])
        idxs.append(np.full(rec.n_timesteps, index, dtype=np.int64))
    have_labels = all(rec.labels is not None for rec in dataset.subjects)
    labels = np.concatenate([rec.labels for rec in dataset.subjects]) if have_labels else None
    return np.concatenate(xs), np.concatenate(idxs), labels


def _is_view(part, window):
    """True if ``part`` is exactly the ``window`` of its dataset's storage."""
    return (np.shares_memory(part, window) and part.shape == window.shape
            and part.ctypes.data == window.ctypes.data and part.strides == window.strides)


class TestBlockStorage:
    def make(self, labelled=True):
        rng = SeededRng(8)
        return MultiSubjectDataset(
            [SubjectData(f"s{i}", rng.normal((6 + i, 3)),
                         np.arange(6 + i) % 2 if labelled else None, i % 2) for i in range(4)],
            {})

    def test_stacked_hands_out_the_storage_of_loaded_and_split_datasets(self, tmp_path):
        built = self.make()
        save_dataset(built, tmp_path / "data.smds")
        loaded = load_dataset(tmp_path / "data.smds")
        entries = []
        for rec in built.subjects[:2]:
            np.savetxt(tmp_path / f"{rec.subject_id}.csv", rec.data, delimiter=",")
            (tmp_path / f"{rec.subject_id}.txt").write_text(" ".join(map(str, rec.labels)))
            entries.append({"subject_id": rec.subject_id, "csv_path": f"{rec.subject_id}.csv",
                            "label_path": f"{rec.subject_id}.txt", "group": rec.group})
        (tmp_path / "manifest.json").write_text(json.dumps({"subjects": entries}))
        even, _ = synth_group_dataset(4, 12, 5, 2, 1.0, seed=3)
        parts = [built, loaded, load_dataset(tmp_path / "manifest.json", fmt="csv"),
                 pickle.loads(pickle.dumps(built)), _take_all(built, np.arange(1, 5)),
                 center_subjects(loaded), even, *split(even, "first_second_half")[::2],
                 *[p for p in split(even, "timestep_fraction", test_fraction=0.5,
                                    val_fraction=0.2, seed=1) if p is not None],
                 *split(loaded, "subject_holdout", n_holdout=1, seed=2)[::2],
                 MultiSubjectDataset(loaded.subjects[1:3])]
        for ds in parts:
            x, idx, labels = stacked(ds)
            assert np.shares_memory(x, ds.subjects[0].data)
            assert x.flags.c_contiguous and x.dtype == np.float64
            for rec, start, stop in zip(ds.subjects, ds.offsets, ds.offsets[1:]):
                assert _is_view(rec.data, x[start:stop])
                assert labels is None or _is_view(rec.labels, labels[start:stop])
            ref = _reference_stacked(ds)
            assert np.array_equal(x, ref[0]) and np.array_equal(idx, ref[1])
            assert (labels is None) == (ref[2] is None)
            assert labels is None or np.array_equal(labels, ref[2])

    def test_stacked_matches_concatenation(self):
        ds = self.make()
        spec = ModelSpec("decomposed", "autoencoder", 3, 2, 2, 5)
        model = build_model(spec, 0, subject_ids=["z", "s3", "s1", "s0", "s2"])
        some = MultiSubjectDataset([ds.subjects[0], ds.subjects[3]])
        for part, with_model in [(ds, None), (ds, model), (some, model),
                                 (self.make(labelled=False), None)]:
            got, ref = stacked(part, with_model), _reference_stacked(part, with_model)
            assert np.array_equal(got[0], ref[0])
            assert got[1].dtype == np.int64 and np.array_equal(got[1], ref[1])
            assert (got[2] is None) == (ref[2] is None)
            assert got[2] is None or np.array_equal(got[2], ref[2])

    def test_mixed_labels_survive_and_stack_to_none(self, tmp_path):
        ds = self.make()
        ds = MultiSubjectDataset([ds.subjects[0], SubjectData("bare", np.ones((2, 3)))])
        assert stacked(ds)[2] is None and ds.subjects[0].labels.tolist() == [0, 1, 0, 1, 0, 1]

    def test_split_copies_rows_without_a_second_finiteness_check(self, monkeypatch):
        ds, _ = synth_group_dataset(4, 8, 3, 2, 1.0, seed=1)
        calls = []
        monkeypatch.setattr(MultiSubjectDataset, "_check_finite", lambda self: calls.append(1))
        train, _, test = split(ds, "first_second_half")
        assert calls == []
        assert np.array_equal(train.subjects[2].data, ds.subjects[2].data[:4])
        assert not np.shares_memory(train.block, ds.block)

    def test_non_finite_record_is_named_by_the_dataset(self):
        rng = SeededRng(2)
        bad = rng.normal((3, 2))
        bad[1, 1] = np.inf
        with pytest.raises(NonFiniteError, match="'b'"):
            MultiSubjectDataset([SubjectData("a", rng.normal((2, 2))), SubjectData("b", bad)])

    def test_building_copies_records_and_leaves_them_alone(self):
        rec = SubjectData("a", np.zeros((2, 2)), [0, 1])
        ds = MultiSubjectDataset([rec])
        ds.subjects[0].data[0, 0] = 5.0
        assert rec.data[0, 0] == 0.0 and ds.block[0, 0] == 5.0
        assert ds.subjects[0] is not rec and np.shares_memory(ds.labels, ds.subjects[0].labels)

    def test_pickle_keeps_records_viewing_one_block(self):
        ds = self.make()
        back = pickle.loads(pickle.dumps(ds))
        assert back.subject_ids == ds.subject_ids and back.metadata == ds.metadata
        assert np.array_equal(back.block, ds.block) and np.array_equal(back.labels, ds.labels)
        assert [r.group for r in back.subjects] == [r.group for r in ds.subjects]
        for rec in back.subjects:
            assert np.shares_memory(rec.data, back.block)
            assert np.shares_memory(rec.labels, back.labels)



def _same_dataset(got, want) -> bool:
    """Byte-equal datasets: ids, groups, row layout, rows, labels and metadata."""
    if got is None or want is None:
        return got is want
    return (got.subject_ids == want.subject_ids
            and [r.group for r in got.subjects] == [r.group for r in want.subjects]
            and np.array_equal(got.offsets, want.offsets)
            and got.block.tobytes() == want.block.tobytes()
            and (got.labels is None) == (want.labels is None)
            and (got.labels is None or got.labels.tobytes() == want.labels.tobytes())
            and got.metadata == want.metadata)


class TestLoadParts:
    """The loader cuts each partition from the file as it reads it, one subject at a time."""

    def write(self, tmp_path, fmt, labelled=True, n_timesteps=(9, 9, 9, 9, 9)):
        # labels mark each row's index, so a partition's labels say which rows it holds
        rng = SeededRng(11)
        built = MultiSubjectDataset(
            [SubjectData(f"s{i}", 3.0 + rng.normal((t, 4)), np.arange(t) if labelled else None,
                         None if i == 2 else i % 2) for i, t in enumerate(n_timesteps)])
        if fmt == "binary":
            save_dataset(built, tmp_path / "data.smds")
            return built, tmp_path / "data.smds"
        entries = []
        for rec in built.subjects:
            np.savetxt(tmp_path / f"{rec.subject_id}.csv", rec.data, delimiter=",")
            entry = {"subject_id": rec.subject_id, "csv_path": f"{rec.subject_id}.csv",
                     "group": rec.group}
            if labelled:
                (tmp_path / f"{rec.subject_id}.txt").write_text(" ".join(map(str, rec.labels)))
                entry["label_path"] = f"{rec.subject_id}.txt"
            entries.append(entry)
        (tmp_path / "manifest.json").write_text(json.dumps({"subjects": entries}))
        return built, tmp_path / "manifest.json"

    @pytest.mark.parametrize("fmt", ["binary", "csv"])
    @pytest.mark.parametrize("labelled", [True, False])
    @pytest.mark.parametrize("center", [False, True])
    @pytest.mark.parametrize("scheme,keys", [
        ("timestep_fraction", {"test_fraction": 0.5, "val_fraction": 0.2}),
        ("timestep_fraction", {"test_fraction": 0.8, "val_fraction": 0.0}),
        ("first_second_half", {}),
        ("subject_holdout", {"n_holdout": 2}),
        ("none", {}),
    ])
    def test_partitions_equal_split_of_the_loaded_dataset(self, tmp_path, fmt, labelled, center,
                                                          scheme, keys):
        built, path = self.write(tmp_path, fmt, labelled)
        cut = _split_plan(scheme, **keys)[0]
        source, parts = _load_parts(path, fmt, lambda records: cut(records, 7), center)
        whole = load_dataset(path, fmt)
        if center:
            whole = center_subjects(whole)
        want = split(whole, scheme, **keys, seed=7)
        assert len(parts) == 3 and all(_same_dataset(g, w) for g, w in zip(parts, want))
        assert source.subject_ids == built.subject_ids
        assert source.groups().tolist() == built.groups().tolist()
        if not labelled:
            return
        # an oracle that shares no code with the loader: each subject's rows, indexed
        for part in parts:
            for rec in [] if part is None else part.subjects:
                full = built.subjects[built.subject_ids.index(rec.subject_id)].data
                if center:
                    full = full - full.mean(axis=0)
                assert np.array_equal(rec.data, full[rec.labels])

    @pytest.mark.parametrize("fmt", ["binary", "csv"])
    @pytest.mark.parametrize("center", [False, True])
    def test_fine_tune_window_and_tail_equal_take_all(self, tmp_path, fmt, center):
        _, path = self.write(tmp_path, fmt)
        whole = load_dataset(path, fmt)
        if center:
            whole = center_subjects(whole)
        for rows in (np.arange(3), np.arange(5, 9), np.arange(9)):
            _, (got,) = _load_parts(path, fmt, lambda records: [_same_rows(records, rows)],
                                    center)
            assert _same_dataset(got, _take_all(whole, rows))

    def test_none_reads_the_file_straight_into_one_block(self, tmp_path):
        _, path = self.write(tmp_path, "binary", labelled=False)
        cut = _split_plan("none")[0]
        tracemalloc.start()
        try:
            _, (whole, val, test) = _load_parts(path, "binary", lambda records: cut(records, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert val is None and test is None and _same_dataset(whole, load_dataset(path))
        assert peak < whole.block.nbytes + 2 ** 14

    def test_truncated_file_is_parse_error(self, tmp_path):
        _, path = self.write(tmp_path, "binary")
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2])
        cut = _split_plan("first_second_half")[0]
        with pytest.raises(ParseError, match=rf"accounts for {len(raw)} bytes, the file has "
                                             rf"{len(raw) // 2}$"):
            _load_parts(path, "binary", lambda records: cut(records, 0))

    @pytest.mark.parametrize("center", [False, True])
    @pytest.mark.parametrize("scheme,keys", [("first_second_half", {}),
                                             ("subject_holdout", {"n_holdout": 2})])
    def test_non_finite_subject_is_named(self, tmp_path, center, scheme, keys):
        built, path = self.write(tmp_path, "binary")
        built.subjects[3].data[4, 1] = np.nan
        built.subjects[4].data[0, 0] = np.inf
        save_dataset(built, path)
        cut = _split_plan(scheme, **keys)[0]
        with pytest.raises(NonFiniteError, match="^subject 's3' data contains non-finite"):
            _load_parts(path, "binary", lambda records: cut(records, 0), center)

    @pytest.mark.parametrize("scheme", ["timestep_fraction", "first_second_half"])
    def test_unequal_lengths_fail_before_any_data_is_read(self, tmp_path, scheme):
        # a NaN in the first subject would fail the read: the lengths fail first
        built, path = self.write(tmp_path, "binary", n_timesteps=(9, 9, 7, 9, 9))
        built.subjects[0].data[0, 0] = np.nan
        save_dataset(built, path)
        cut = _split_plan(scheme)[0]
        with pytest.raises(ShapeError, match=r"^timestep split needs equal lengths, got \[7, 9\]$"):
            _load_parts(path, "binary", lambda records: cut(records, 0))

    @pytest.mark.parametrize("n_holdout", [0, 5])
    def test_holdout_count_fails_before_any_data_is_read(self, tmp_path, n_holdout):
        built, path = self.write(tmp_path, "binary")
        built.subjects[0].data[0, 0] = np.nan
        save_dataset(built, path)
        cut = _split_plan("subject_holdout", n_holdout=n_holdout)[0]
        with pytest.raises(ConfigError, match=rf"^n_holdout {n_holdout} must lie in \[1, 5\)"):
            _load_parts(path, "binary", lambda records: cut(records, 0))


class TestStreamedLoads:
    """A packed file with rows a page wide loads as partitions that read the file as they go."""

    def write(self, tmp_path, n_timesteps=(12, 12, 12, 12, 12)):
        # labels mark each row's index, as in TestLoadParts
        rng = SeededRng(12)
        built = MultiSubjectDataset(
            [SubjectData(f"s{i}", rng.normal((t, mmap.PAGESIZE // 8)), np.arange(t), i % 2)
             for i, t in enumerate(n_timesteps)])
        save_dataset(built, tmp_path / "data.smds")
        return built, tmp_path / "data.smds"

    @pytest.mark.parametrize("scheme,keys", [
        ("timestep_fraction", {"test_fraction": 0.5, "val_fraction": 0.2}),
        ("first_second_half", {}),
        ("subject_holdout", {"n_holdout": 2}),
        ("none", {}),
    ])
    def test_partitions_and_their_pickles_equal_the_held_split(self, tmp_path, scheme, keys):
        _, path = self.write(tmp_path)
        cut = _split_plan(scheme, **keys)[0]
        parts = _load_parts(path, "binary", lambda records: cut(records, 7))[1]
        want = split(load_dataset(path), scheme, **keys, seed=7)
        for got, held in zip(parts, want):
            if held is None:
                assert got is None
                continue
            assert type(got) is MultiSubjectDataset and type(got.block) is _PackedRows
            assert got.subject_ids == held.subject_ids and got.metadata == held.metadata
            assert got.n_subjects == held.n_subjects
            assert got.groups().tolist() == held.groups().tolist()
            assert np.array_equal(got.offsets, held.offsets)
            assert got.labels.tobytes() == held.labels.tobytes()
            assert got.block.shape == held.block.shape and got.block.nbytes == held.block.nbytes
            assert got.block[:].tobytes() == held.block.tobytes()
            back = pickle.loads(pickle.dumps(got))
            assert type(back) is MultiSubjectDataset and _same_dataset(back, held)

    def test_rows_read_as_the_held_gather(self, tmp_path):
        built, path = self.write(tmp_path, n_timesteps=(12, 0, 7, 12))
        (whole,) = _load_parts(path, "binary", lambda records: [_ALL])[1]
        order = SeededRng(3).permutation(31)
        for rows in (order[:8], np.sort(order[:9]), np.arange(31), order[5:5], slice(4, 20),
                     slice(29, 60)):
            got = whole.block[rows]
            assert got.dtype == np.float64 and got.flags.c_contiguous and got.flags.owndata
            assert got.tobytes() == built.block[rows].tobytes()
        assert stacked(whole)[2].tolist() == built.labels.tolist()

    def test_a_read_the_kernel_cuts_short_is_completed(self, tmp_path, monkeypatch):
        built, path = self.write(tmp_path)
        (whole,) = _load_parts(path, "binary", lambda records: [_ALL])[1]
        real = os.preadv

        def short(fd, buffers, at):
            (buffer,) = buffers
            return real(fd, [memoryview(buffer).cast("B")[:1000]], at)
        monkeypatch.setattr(os, "preadv", short)
        assert whole.block[:].tobytes() == built.block.tobytes()
        assert whole.block[[3, 50, 51, 52]].tobytes() == built.block[[3, 50, 51, 52]].tobytes()

    def test_non_finite_subject_is_named(self, tmp_path):
        built, path = self.write(tmp_path)
        built.subjects[3].data[4, 1] = np.nan
        save_dataset(built, path)
        with pytest.raises(NonFiniteError, match="^subject 's3' data contains non-finite"):
            _load_parts(path, "binary", lambda records: [[(2, None), (3, np.arange(5, 12))]])
