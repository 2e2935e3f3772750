"""Checkpoint container: every malformed file raises FormatError with its offset,
and tensors stream between file and model without extra copies."""

import json
import struct
import tracemalloc

import numpy as np
import pytest

from moelab.checkpoint import MAGIC, read_checkpoint, write_checkpoint
from moelab.errors import FormatError
from moelab.model import Model, desk_config
from moelab.trainer import LrSchedule, Trainer, load_checkpoint, save_checkpoint

MiB = 2**20


def craft(header: bytes, tensors=()) -> bytes:
    """A checkpoint from raw parts: tensors are (name, dtype code, dims, value bytes)."""
    out = [MAGIC, struct.pack("<I", len(header)), header, struct.pack("<I", len(tensors))]
    for name, code, dims, values in tensors:
        out += [struct.pack("<H", len(name)), name.encode(), struct.pack("<BB", code, len(dims)),
                struct.pack(f"<{len(dims)}Q", *dims), values]
    return b"".join(out)


# The tiny file the truncation cases cut: header {"k": 1}, one 2 x 3 float64 tensor "wt".
HEADER = json.dumps({"k": 1}, sort_keys=True).encode()
TINY = craft(HEADER, [("wt", 1, (2, 3), np.arange(6.0).tobytes())])
_h = len(HEADER)
BOUNDARIES = {  # field -> offset where it starts
    "magic": 0,
    "header length": 8,
    "JSON header": 12,
    "tensor count": 12 + _h,
    "tensor 0 name length": 16 + _h,
    "tensor 0 name": 18 + _h,
    "tensor wt dtype/rank": 20 + _h,
    "tensor wt dims": 22 + _h,
    "tensor wt values": 38 + _h,
}
CUTS = ([(field, at, at) for field, at in BOUNDARIES.items()]
        + [(field, at, at + 1) for field, at in BOUNDARIES.items()]
        + [("tensor wt values", BOUNDARIES["tensor wt values"],
            BOUNDARIES["tensor wt values"] + 24)])


def test_tiny_file_is_what_write_checkpoint_writes(tmp_path):
    path = tmp_path / "tiny.ckpt"
    write_checkpoint(str(path), {"k": 1}, {"wt": np.arange(6.0).reshape(2, 3)})
    assert path.read_bytes() == TINY
    header, tensors = read_checkpoint(str(path))
    assert header == {"k": 1} and np.array_equal(tensors["wt"], np.arange(6.0).reshape(2, 3))


def test_version_one_file_is_refused(tmp_path):
    # version 1 held models with the exact (erf) GELU; its header is otherwise the same
    path = tmp_path / "v1.ckpt"
    path.write_bytes(b"MOECKPT1" + TINY[len(MAGIC):])
    with pytest.raises(FormatError) as exc:
        read_checkpoint(str(path))
    assert str(exc.value) == f"{path}: unsupported checkpoint version b'MOECKPT1' at offset 0"


@pytest.mark.parametrize("field,start,cut", CUTS,
                         ids=[f"{field}+{cut - start}" for field, start, cut in CUTS])
def test_truncation_at_every_boundary_names_the_offset(tmp_path, field, start, cut):
    path = tmp_path / "cut.ckpt"
    path.write_bytes(TINY[:cut])
    with pytest.raises(FormatError, match="offset") as exc:
        read_checkpoint(str(path))
    assert f"truncated while reading {field} at offset {start}" in str(exc.value)


def test_trailing_bytes_name_the_offset(tmp_path):
    path = tmp_path / "long.ckpt"
    path.write_bytes(TINY + b"\0")
    with pytest.raises(FormatError, match=f"1 trailing bytes at offset {len(TINY)}"):
        read_checkpoint(str(path))


@pytest.mark.parametrize("dims", [(2**63 + 1,), (2**32, 2**32), (2**64 - 1, 2**64 - 1)])
def test_dims_larger_than_the_file_are_rejected_before_allocating(tmp_path, dims):
    path = tmp_path / "huge.ckpt"
    path.write_bytes(craft(HEADER, [("big", 1, dims, b"\0" * 16)]))
    values_at = 12 + _h + 4 + 2 + 3 + 2 + 8 * len(dims)
    with pytest.raises(FormatError) as exc:
        read_checkpoint(str(path))
    message = str(exc.value)
    assert str(path) in message
    assert f"truncated while reading tensor big values at offset {values_at}" in message


@pytest.mark.parametrize("dims", [(0, 2**63), (2**61, 0, 2**61)])
def test_empty_tensor_with_unaddressable_dims_rejected(tmp_path, dims):
    path = tmp_path / "empty.ckpt"
    path.write_bytes(craft(HEADER, [("none", 1, dims, b"")]))
    dims_at = 12 + _h + 4 + 2 + 4 + 2
    with pytest.raises(FormatError) as exc:
        read_checkpoint(str(path))
    message = str(exc.value)
    assert str(path) in message and "tensor none" in message
    assert f"at offset {dims_at}" in message


@pytest.mark.parametrize("header", [b'"model"', b"[1, 2]", b"3", b"null"])
def test_header_that_is_not_an_object_rejected(tmp_path, header):
    path = tmp_path / "hdr.ckpt"
    path.write_bytes(craft(header))
    with pytest.raises(FormatError, match="JSON header at offset 12 is a .*not an object"):
        read_checkpoint(str(path))
    with pytest.raises(FormatError, match="JSON header"):
        load_checkpoint(str(path))


def test_model_entry_that_is_not_an_object_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_bytes(craft(b'{"model": "desk"}'))
    with pytest.raises(FormatError, match="lacks a model config"):
        load_checkpoint(str(path))


TINY_CONFIG = dict(n_layers=2, d_model=8, n_heads=2, max_seq_len=4, vocab_size=16, n_experts=2)
GOOD_STATE = {"step": 7, "seed": 3, "tokens_seen": 56}


@pytest.mark.parametrize("state, field", [
    ({k: v for k, v in GOOD_STATE.items() if k != "seed"}, "'seed'"),
    (5, "state must be an object"),
    ({**GOOD_STATE, "step": "7"}, "'step'"),
    ({**GOOD_STATE, "tokens_seen": True}, "'tokens_seen'"),
], ids=["no_seed", "number", "step_string", "tokens_bool"])
def test_malformed_trainer_state_names_the_field(tmp_path, state, field):
    path = tmp_path / "state.ckpt"
    path.write_bytes(craft(json.dumps({"model": TINY_CONFIG, "state": state}).encode()))
    with pytest.raises(FormatError) as info:
        load_checkpoint(str(path))
    assert str(path) in str(info.value) and field in str(info.value)


@pytest.mark.parametrize("blob, problem", [
    (craft(b'{"k": 1'), "invalid JSON header at offset 12: "),
    (craft(b'{"k": "\xff"}'), "invalid JSON header at offset 12: 'utf-8' codec"),
    (craft(b'{"k": ' + b"9" * 5000 + b"}"), "invalid JSON header at offset 12: Exceeds the limit"),
    (craft(HEADER, [("wt", 9, (2, 3), bytes(48))]), "tensor wt has unknown dtype code 9"),
    (craft(HEADER, [("wt", 1, (1,), bytes(8)), ("wt", 1, (1,), bytes(8))]),
     "duplicate tensor name 'wt'"),
], ids=["header_not_json", "header_not_utf8", "integer_past_digit_limit", "unknown_dtype",
        "duplicate_name"])
def test_malformed_header_or_tensor_entry_names_the_file(tmp_path, blob, problem):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(blob)
    with pytest.raises(FormatError) as exc:
        read_checkpoint(str(path))
    assert str(exc.value).startswith(f"{path}: {problem}")


def test_tensor_name_that_is_not_utf8_rejected(tmp_path):
    blob = bytearray(TINY)
    blob[BOUNDARIES["tensor 0 name"]] = 0xFF
    path = tmp_path / "name.ckpt"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match=f"tensor 0 name at offset {BOUNDARIES['tensor 0 name']}"):
        read_checkpoint(str(path))


def test_unsupported_dtype_writes_nothing(tmp_path):
    path = tmp_path / "int.ckpt"
    path.write_bytes(TINY)
    with pytest.raises(ValueError, match="tensor i has unsupported dtype int64"):
        write_checkpoint(str(path), {}, {"w": np.zeros(2), "i": np.arange(3)})
    assert path.read_bytes() == TINY
    assert [p.name for p in tmp_path.iterdir()] == ["int.ckpt"]


@pytest.mark.parametrize("poisoned, named", [
    ({"layers.1.moe.gate": np.nan, "lnf.gain": np.inf}, "layers.1.moe.gate"),
    ({"adam.v.lnf.bias": np.nan}, "adam.v.lnf.bias"),
], ids=["parameter", "adam_moment"])
def test_non_finite_tensor_writes_nothing(tmp_path, poisoned, named):
    model = Model(desk_config(**TINY_CONFIG))
    trainer = Trainer(model, [], None, LrSchedule.for_total_steps(1e-3, 10), batch_size=1, seed=0)
    arrays = {name: p.data for name, p in model.named_parameters().items()}
    arrays.update({f"adam.m.{name}": m for name, m in trainer.adam.m.items()})
    arrays.update({f"adam.v.{name}": v for name, v in trainer.adam.v.items()})
    for name, value in poisoned.items():
        arrays[name].flat[0] = value
    path = tmp_path / "m.ckpt"
    path.write_bytes(TINY)
    with pytest.raises(FloatingPointError,
                       match=f"^{path}: tensor '{named}' holds a non-finite value;"):
        save_checkpoint(trainer, str(path))
    assert path.read_bytes() == TINY
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


def test_trainer_state_in_the_header_is_step_seed_and_tokens_seen(tmp_path):
    model = Model(desk_config(**TINY_CONFIG))
    trainer = Trainer(model, [], None, LrSchedule.for_total_steps(1e-3, 10), batch_size=1, seed=4)
    trainer.step, trainer.tokens_seen = 3, 24
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(trainer, path)
    header, _ = read_checkpoint(path)
    assert header["state"] == {"step": 3, "seed": 4, "tokens_seen": 24}
    _, state = load_checkpoint(path)
    assert set(state) == {"step", "seed", "tokens_seen", "moments"}


class TestMemory:
    """tracemalloc peaks at desk_config(): a load holds each tensor once, a save
    holds none of them again."""

    @pytest.fixture(scope="class")
    def model(self):
        return Model(desk_config())

    @pytest.mark.parametrize("with_adam", [False, True], ids=["weights", "resume"])
    def test_load_and_save_peaks(self, tmp_path, model, with_adam):
        trainer = None
        if with_adam:
            trainer = Trainer(model, [], None, LrSchedule.for_total_steps(1e-3, 10),
                              batch_size=1, seed=0)
        arrays = [p.data for p in model.named_parameters().values()]
        if trainer is not None:
            arrays += list(trainer.adam.m.values()) + list(trainer.adam.v.values())
        tensor_bytes = sum(a.nbytes for a in arrays)
        largest = max(a.nbytes for a in arrays)
        path = str(tmp_path / "m.ckpt")

        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            save_checkpoint(model if trainer is None else trainer, path)
            save_extra = tracemalloc.get_traced_memory()[1] - before
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            loaded, state = load_checkpoint(path)
            load_extra = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

        assert save_extra < largest + MiB, (save_extra, largest)
        assert load_extra < 1.25 * tensor_bytes, (load_extra, tensor_bytes)
        assert (state is not None) == with_adam
        for name, p in model.named_parameters().items():
            assert np.array_equal(p.data, loaded.named_parameters()[name].data), name

    def test_resume_holds_the_moments_once(self, tmp_path, model):
        schedule = LrSchedule.for_total_steps(1e-3, 10)
        path = str(tmp_path / "r.ckpt")
        save_checkpoint(Trainer(model, [], None, schedule, batch_size=1, seed=0), path)
        peaks = []
        for load in (lambda: load_checkpoint(path),
                     lambda: Trainer.resume(path, [], None, schedule, batch_size=1)):
            tracemalloc.start()
            try:
                load()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + MiB, peaks
