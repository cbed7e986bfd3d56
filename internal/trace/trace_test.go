package trace

import (
	"bufio"
	"bytes"
	"runtime"
	"strings"
	"testing"

	"samr/internal/geom"
	"samr/internal/grid"
)

func sampleTrace() *Trace {
	dom := geom.NewBox2(0, 0, 16, 16)
	t := &Trace{App: "TP2D", RefRatio: 2, MaxLevels: 3, Domain: dom}
	h := grid.NewHierarchy(dom, 2)
	t.Append(0, 0.0, h)
	h.Levels = append(h.Levels, grid.Level{Boxes: geom.BoxList{geom.NewBox2(4, 4, 12, 12)}})
	t.Append(1, 0.1, h)
	h.Levels[1].Boxes[0] = geom.NewBox2(6, 6, 14, 14)
	t.Append(2, 0.2, h)
	return t
}

func TestAppendDeepCopies(t *testing.T) {
	tr := sampleTrace()
	// Snapshot 1 and 2 must differ even though the same hierarchy object
	// was mutated between appends.
	b1 := tr.Snapshots[1].H.Levels[1].Boxes[0]
	b2 := tr.Snapshots[2].H.Levels[1].Boxes[0]
	if b1 == b2 {
		t.Error("Append did not deep-copy the hierarchy")
	}
}

func TestRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.App != tr.App || got.RefRatio != tr.RefRatio || got.MaxLevels != tr.MaxLevels {
		t.Errorf("metadata mismatch: %+v", got)
	}
	if got.Domain != tr.Domain {
		t.Errorf("domain = %v, want %v", got.Domain, tr.Domain)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("snapshot count = %d, want %d", got.Len(), tr.Len())
	}
	for i := range tr.Snapshots {
		a, b := tr.Snapshots[i], got.Snapshots[i]
		if a.Step != b.Step || a.Time != b.Time {
			t.Errorf("snapshot %d header mismatch", i)
		}
		if a.H.NumPoints() != b.H.NumPoints() {
			t.Errorf("snapshot %d points %d != %d", i, a.H.NumPoints(), b.H.NumPoints())
		}
		if len(a.H.Levels) != len(b.H.Levels) {
			t.Fatalf("snapshot %d level count mismatch", i)
		}
		for l := range a.H.Levels {
			for bi := range a.H.Levels[l].Boxes {
				if a.H.Levels[l].Boxes[bi] != b.H.Levels[l].Boxes[bi] {
					t.Errorf("snapshot %d level %d box %d mismatch", i, l, bi)
				}
			}
		}
	}
}

func TestReadRejectsBadMagic(t *testing.T) {
	if _, err := Read(strings.NewReader("NOTATRACEFILE...")); err == nil {
		t.Error("Read should reject bad magic")
	}
}

func TestReadRejectsTruncation(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{9, len(full) / 2, len(full) - 3} {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("Read of %d/%d bytes should fail", cut, len(full))
		}
	}
}

// TestReadBoundsAllocationByInput: a 128-byte file claiming 2^24 boxes
// and holding none must fail without allocating for the claimed boxes
// (939.5 MB when the count sized the level up front).
func TestReadBoundsAllocationByInput(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	bw.Write(magic[:]) //nolint:errcheck
	writeString(bw, "")
	writeI64(bw, 2) // refinement ratio
	writeI64(bw, 1) // max levels
	writeBox(bw, geom.NewBox2(0, 0, 16, 16))
	writeI64(bw, 1) // snapshots
	writeI64(bw, 0) // step
	writeI64(bw, 0) // time
	writeI64(bw, 1) // levels
	writeI64(bw, 1<<24)
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 128 {
		t.Fatalf("input is %d bytes, want 128", buf.Len())
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(buf.Bytes()))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("Read accepted a level missing its boxes")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 8<<20 {
		t.Fatalf("Read allocated %d bytes for a 128-byte input", got)
	}
}

// FuzzRead: Read never panics, and any trace it accepts survives a
// Write/Read round trip unchanged (compared by re-encoding, which also
// covers NaN times).
func FuzzRead(f *testing.F) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleTrace()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	buf.Reset()
	if err := Write(&buf, &Trace{App: "EMPTY"}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("NOTATRACEFILE..."))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var enc bytes.Buffer
		if err := Write(&enc, tr); err != nil {
			t.Fatal(err)
		}
		again, err := Read(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("re-reading a written trace: %v", err)
		}
		var enc2 bytes.Buffer
		if err := Write(&enc2, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc.Bytes(), enc2.Bytes()) {
			t.Fatal("Write/Read round trip changed the trace")
		}
	})
}

func TestValidate(t *testing.T) {
	tr := sampleTrace()
	if err := tr.Validate(); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
	// Non-increasing steps.
	bad := sampleTrace()
	bad.Snapshots[2].Step = 1
	if err := bad.Validate(); err == nil {
		t.Error("Validate should reject non-increasing steps")
	}
	// Broken hierarchy.
	bad2 := sampleTrace()
	bad2.Snapshots[1].H.Levels[1].Boxes = append(bad2.Snapshots[1].H.Levels[1].Boxes,
		bad2.Snapshots[1].H.Levels[1].Boxes[0])
	if err := bad2.Validate(); err == nil {
		t.Error("Validate should reject overlapping level boxes")
	}
}

func TestEmptyTraceRoundTrip(t *testing.T) {
	tr := &Trace{App: "X", RefRatio: 2, MaxLevels: 1, Domain: geom.NewBox2(0, 0, 4, 4)}
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Errorf("empty trace read back with %d snapshots", got.Len())
	}
}
