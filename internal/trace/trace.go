// Package trace captures and replays SAMR application traces: the
// sequence of grid-hierarchy snapshots an adaptive run produces,
// independent of any partitioning. This mirrors the Rutgers experimental
// process the paper uses ("this trace captures the state of the SAMR
// grid hierarchy for the application at the regrid step and is
// independent of any partitioning").
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"samr/internal/geom"
	"samr/internal/grid"
)

// Snapshot is the hierarchy state at the end of one coarse time step.
type Snapshot struct {
	// Step is the coarse time-step index (0-based).
	Step int
	// Time is the physical simulation time at the snapshot.
	Time float64
	// H is the grid hierarchy; snapshots own their hierarchies.
	H *grid.Hierarchy
}

// Trace is a full application run: metadata plus ordered snapshots.
type Trace struct {
	// App names the application kernel (e.g. "BL2D").
	App string
	// RefRatio is the space/time refinement factor.
	RefRatio int
	// MaxLevels is the level budget the run was configured with.
	MaxLevels int
	// Domain is the base-level index-space box.
	Domain geom.Box
	// Snapshots are ordered by Step.
	Snapshots []Snapshot
}

// Append adds a snapshot, deep-copying the hierarchy so later driver
// mutations cannot corrupt the trace.
func (t *Trace) Append(step int, time float64, h *grid.Hierarchy) {
	t.Snapshots = append(t.Snapshots, Snapshot{Step: step, Time: time, H: h.Clone()})
}

// Len returns the number of snapshots.
func (t *Trace) Len() int { return len(t.Snapshots) }

// Validate checks every snapshot's hierarchy invariants and the step
// ordering.
func (t *Trace) Validate() error {
	for i, s := range t.Snapshots {
		if err := s.H.Validate(); err != nil {
			return fmt.Errorf("trace: snapshot %d: %w", i, err)
		}
		if i > 0 && s.Step <= t.Snapshots[i-1].Step {
			return fmt.Errorf("trace: snapshot %d step %d not increasing", i, s.Step)
		}
	}
	return nil
}

// magic identifies the binary trace format; the trailing digit is the
// format version.
var magic = [8]byte{'S', 'A', 'M', 'R', 'T', 'R', 'C', '1'}

// Write serializes the trace in the versioned binary format.
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	writeString(bw, t.App)
	writeI64(bw, int64(t.RefRatio))
	writeI64(bw, int64(t.MaxLevels))
	writeBox(bw, t.Domain)
	writeI64(bw, int64(len(t.Snapshots)))
	for _, s := range t.Snapshots {
		writeI64(bw, int64(s.Step))
		if err := binary.Write(bw, binary.LittleEndian, s.Time); err != nil {
			return err
		}
		writeI64(bw, int64(len(s.H.Levels)))
		for _, lev := range s.H.Levels {
			writeI64(bw, int64(len(lev.Boxes)))
			for _, b := range lev.Boxes {
				writeBox(bw, b)
			}
		}
	}
	return bw.Flush()
}

// Read deserializes a trace written by Write.
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	var m [8]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if m != magic {
		return nil, fmt.Errorf("trace: bad magic %q", m[:])
	}
	t := &Trace{}
	var err error
	if t.App, err = readString(br); err != nil {
		return nil, err
	}
	rr, err := readI64(br)
	if err != nil {
		return nil, err
	}
	t.RefRatio = int(rr)
	ml, err := readI64(br)
	if err != nil {
		return nil, err
	}
	t.MaxLevels = int(ml)
	if t.Domain, err = readBox(br); err != nil {
		return nil, err
	}
	nSnap, err := readI64(br)
	if err != nil {
		return nil, err
	}
	if nSnap < 0 || nSnap > 1<<24 {
		return nil, fmt.Errorf("trace: implausible snapshot count %d", nSnap)
	}
	for i := int64(0); i < nSnap; i++ {
		var s Snapshot
		st, err := readI64(br)
		if err != nil {
			return nil, err
		}
		s.Step = int(st)
		if err := binary.Read(br, binary.LittleEndian, &s.Time); err != nil {
			return nil, err
		}
		nLev, err := readI64(br)
		if err != nil {
			return nil, err
		}
		if nLev < 0 || nLev > 64 {
			return nil, fmt.Errorf("trace: implausible level count %d", nLev)
		}
		h := &grid.Hierarchy{Domain: t.Domain, RefRatio: t.RefRatio}
		for l := int64(0); l < nLev; l++ {
			nBox, err := readI64(br)
			if err != nil {
				return nil, err
			}
			if nBox < 0 || nBox > 1<<24 {
				return nil, fmt.Errorf("trace: implausible box count %d", nBox)
			}
			// nBox is unread input, so it must not size an allocation:
			// boxes are appended as they are read.
			lev := grid.Level{Boxes: make(geom.BoxList, 0, min(nBox, 64))}
			for bi := int64(0); bi < nBox; bi++ {
				b, err := readBox(br)
				if err != nil {
					return nil, err
				}
				lev.Boxes = append(lev.Boxes, b)
			}
			h.Levels = append(h.Levels, lev)
		}
		s.H = h
		t.Snapshots = append(t.Snapshots, s)
	}
	return t, nil
}

func writeI64(w io.Writer, v int64) {
	binary.Write(w, binary.LittleEndian, v) //nolint:errcheck // bufio defers errors to Flush
}

func readI64(r io.Reader) (int64, error) {
	var v int64
	err := binary.Read(r, binary.LittleEndian, &v)
	return v, err
}

func writeString(w *bufio.Writer, s string) {
	writeI64(w, int64(len(s)))
	w.WriteString(s) //nolint:errcheck
}

func readString(r *bufio.Reader) (string, error) {
	n, err := readI64(r)
	if err != nil {
		return "", err
	}
	if n < 0 || n > 1<<16 {
		return "", fmt.Errorf("trace: implausible string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func writeBox(w io.Writer, b geom.Box) {
	writeI64(w, int64(b.Dim))
	for d := 0; d < geom.MaxDim; d++ {
		writeI64(w, int64(b.Lo[d]))
	}
	for d := 0; d < geom.MaxDim; d++ {
		writeI64(w, int64(b.Hi[d]))
	}
}

func readBox(r io.Reader) (geom.Box, error) {
	var b geom.Box
	dim, err := readI64(r)
	if err != nil {
		return b, err
	}
	if dim < 0 || dim > geom.MaxDim {
		return b, fmt.Errorf("trace: bad box dimension %d", dim)
	}
	b.Dim = int(dim)
	for d := 0; d < geom.MaxDim; d++ {
		v, err := readI64(r)
		if err != nil {
			return b, err
		}
		b.Lo[d] = int(v)
	}
	for d := 0; d < geom.MaxDim; d++ {
		v, err := readI64(r)
		if err != nil {
			return b, err
		}
		b.Hi[d] = int(v)
	}
	return b, nil
}
