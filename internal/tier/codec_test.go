package tier

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"samr/internal/geom"
	"samr/internal/partition"
)

// randAssignment builds a structurally arbitrary assignment: the codec
// must round-trip anything, not just valid decompositions.
func randAssignment(rng *rand.Rand) *partition.Assignment {
	a := &partition.Assignment{NumProcs: 1 + rng.IntN(64)}
	n := rng.IntN(40)
	for i := 0; i < n; i++ {
		dim := 2 + rng.IntN(2)
		b := geom.Box{Dim: dim}
		for d := 0; d < geom.MaxDim; d++ {
			// Unused axes carry the 0/1 padding convention sometimes,
			// arbitrary values other times: both must survive.
			b.Lo[d] = rng.IntN(2048) - 1024
			b.Hi[d] = b.Lo[d] + rng.IntN(256)
		}
		a.Fragments = append(a.Fragments, partition.Fragment{
			Level: rng.IntN(6),
			Box:   b,
			Owner: rng.IntN(a.NumProcs),
		})
	}
	return a
}

func TestAssignmentRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for i := 0; i < 200; i++ {
		a := randAssignment(rng)
		blob := EncodeAssignment(a)
		got, err := DecodeAssignment(blob)
		if err != nil {
			t.Fatalf("iteration %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(a, got) {
			t.Fatalf("iteration %d: round trip mismatch:\n in: %+v\nout: %+v", i, a, got)
		}
	}
}

// TestEveryMutationDetected flips, truncates, and extends blobs: each
// damaged form must fail to decode (the checksum catches single-byte
// damage with certainty short of a sha256 collision).
func TestEveryMutationDetected(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 23))
	a := randAssignment(rng)
	blob := EncodeAssignment(a)

	for i := range blob {
		mut := append([]byte(nil), blob...)
		mut[i] ^= 0x41
		if _, err := DecodeAssignment(mut); err == nil {
			t.Fatalf("flipped byte %d decoded cleanly", i)
		}
	}
	for cut := 1; cut <= len(blob); cut += 7 {
		if _, err := DecodeAssignment(blob[:len(blob)-cut]); err == nil {
			t.Fatalf("truncation by %d decoded cleanly", cut)
		}
	}
	if _, err := DecodeAssignment(append(append([]byte(nil), blob...), 0)); err == nil {
		t.Fatal("extended blob decoded cleanly")
	}
	if _, err := DecodeAssignment(nil); err == nil {
		t.Fatal("nil blob decoded cleanly")
	}
	// Kind confusion: a session snapshot is not an assignment.
	snap := EncodeSessionSnapshot(snapshotVariants(t)["stateless"])
	if _, err := DecodeAssignment(snap); err == nil {
		t.Fatal("session snapshot decoded as assignment")
	}
}

// retiredKindBlob seals a blob under the retired kind byte 2 with the
// payload layout its simulator-step encoder used: the assignment, then the step
// metrics — step, loads, imbalance, intra/inter-level comm, messages,
// relative comm, migration, relative migration, estimated time — with
// floats as 8-byte little-endian bit patterns.
func retiredKindBlob(a *partition.Assignment) []byte {
	f := func(buf []byte, v float64) []byte {
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	payload := appendAssignment(nil, a)
	payload = binary.AppendVarint(payload, 3)
	payload = binary.AppendUvarint(payload, 2)
	payload = binary.AppendVarint(payload, 100)
	payload = binary.AppendVarint(payload, 120)
	payload = f(payload, 1.2)
	payload = binary.AppendVarint(payload, 640)
	payload = binary.AppendVarint(payload, 96)
	payload = binary.AppendVarint(payload, 12)
	payload = f(payload, 0.3)
	payload = binary.AppendVarint(payload, 48)
	payload = f(payload, 0.2)
	payload = f(payload, 0.004)
	return seal(2, payload)
}

// TestRetiredKindDecodesAsCorrupt pins the retirement of kind byte 2:
// simulator step blobs that daemons of the removed step spill left on
// disk or at peers still pass the envelope check, but neither typed
// decoder accepts them — not even a kind-2 blob whose payload is a
// valid assignment.
func TestRetiredKindDecodesAsCorrupt(t *testing.T) {
	rng := rand.New(rand.NewPCG(37, 39))
	for i := 0; i < 50; i++ {
		a := randAssignment(rng)
		for _, blob := range [][]byte{retiredKindBlob(a), seal(2, appendAssignment(nil, a))} {
			if _, kind, err := Open(blob); err != nil || kind != 2 {
				t.Fatalf("Open(retired) = kind %d, err %v; want an intact kind-2 envelope", kind, err)
			}
			if _, err := DecodeAssignment(blob); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("DecodeAssignment(retired kind) err = %v, want ErrCorrupt", err)
			}
			if _, err := DecodeSessionSnapshot(blob); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("DecodeSessionSnapshot(retired kind) err = %v, want ErrCorrupt", err)
			}
		}
	}
}

func TestOpenValidatesEnvelope(t *testing.T) {
	blob := EncodeAssignment(&partition.Assignment{NumProcs: 4})
	if _, kind, err := Open(blob); err != nil || kind != KindAssignment {
		t.Fatalf("Open(valid) = kind %d, err %v", kind, err)
	}
	if _, _, err := Open([]byte("not a tier blob at all, definitely too short? no")); err == nil {
		t.Fatal("Open accepted garbage")
	}
}

func FuzzDecodeAssignment(f *testing.F) {
	rng := rand.New(rand.NewPCG(29, 31))
	f.Add([]byte{})
	f.Add(EncodeAssignment(randAssignment(rng)))
	f.Add(retiredKindBlob(randAssignment(rng)))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic or over-allocate; errors are expected.
		a, err := DecodeAssignment(data)
		if err == nil && a == nil {
			t.Fatal("nil assignment with nil error")
		}
	})
}
