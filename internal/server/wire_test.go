package server

import (
	"encoding/json"
	"testing"

	"samr/internal/grid"
)

// FuzzToGrid drives the wire hierarchy decoder with arbitrary JSON.
// toGrid must never panic, and any hierarchy it accepts must pass
// Validate and be 2-D throughout: the partitioners never see a
// structurally invalid or 3-D hierarchy from the wire.
func FuzzToGrid(f *testing.F) {
	seeds := []Hierarchy{
		testHierarchy(0),
		testHierarchy(7),
		wideHierarchy(3),
		{
			Domain:   Box{Dim: 3, Lo: []int{0, 0, 0}, Hi: []int{8, 8, 8}},
			RefRatio: 2,
			Levels: [][]Box{
				{{Dim: 3, Lo: []int{0, 0, 0}, Hi: []int{8, 8, 8}}},
				{{Dim: 3, Lo: []int{4, 4, 4}, Hi: []int{12, 12, 12}}},
			},
		},
	}
	for _, h := range seeds {
		raw, err := json.Marshal(h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for _, raw := range []string{
		`{"domain":{"dim":4,"lo":[0,0,0,0],"hi":[1,1,1,1]},"ref_ratio":2,"levels":[]}`,
		`{"domain":{"dim":2,"lo":[0],"hi":[4,4]},"ref_ratio":2,"levels":[[{"dim":2,"lo":[0,0],"hi":[4,4]}]]}`,
		`{"domain":{"dim":2,"lo":[0,0],"hi":[4,4]},"ref_ratio":1,"levels":[[{"dim":2,"lo":[0,0],"hi":[4,4]}]]}`,
		`{"domain":{"dim":2,"lo":[4,4],"hi":[0,0]},"ref_ratio":2,"levels":[[]]}`,
		`{}`,
	} {
		f.Add([]byte(raw))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var w Hierarchy
		if json.Unmarshal(raw, &w) != nil {
			return
		}
		h, err := w.toGrid()
		if err != nil {
			return
		}
		if err := h.Validate(); err != nil {
			t.Fatalf("toGrid accepted a hierarchy Validate rejects: %v\n%s", err, raw)
		}
		if h.Domain.Dim != grid.Dim {
			t.Fatalf("toGrid accepted a %d-D domain\n%s", h.Domain.Dim, raw)
		}
		for l, lev := range h.Levels {
			for _, b := range lev.Boxes {
				if b.Dim != grid.Dim {
					t.Fatalf("toGrid accepted a %d-D box on level %d\n%s", b.Dim, l, raw)
				}
			}
		}
	})
}
