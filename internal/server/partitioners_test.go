package server

import "testing"

func TestParsePartitionerRoundTripsNames(t *testing.T) {
	// Every canonical Name() a parse produces must parse back to the
	// same canonical name, so experiment output is always a valid spec.
	specs := []string{
		"domain", "domain-morton", "domain-hilbert-u4", "domain-rowmajor-u1",
		"patch", "patch-lpt",
		"hybrid", "nature+fable", "nature+fable-morton-u4-q2-whole",
		"nature+fable-hilbert-u1-q4-frac",
		"postmap(domain-hilbert-u2)", "postmap(nature+fable)",
		"Domain", "PATCH-LPT", "Postmap(Domain-Morton)",
	}
	for _, spec := range specs {
		p, err := ParsePartitioner(spec)
		if err != nil {
			t.Errorf("%q: %v", spec, err)
			continue
		}
		name := p.Name()
		p2, err := ParsePartitioner(name)
		if err != nil {
			t.Errorf("canonical %q (from %q) does not re-parse: %v", name, spec, err)
			continue
		}
		if p2.Name() != name {
			t.Errorf("%q: re-parse changed name %q -> %q", spec, name, p2.Name())
		}
	}
}

func TestParsePartitionerRejectsGarbage(t *testing.T) {
	for _, spec := range []string{
		"", "quantum", "domain-klein", "domain-hilbert-u0", "domain-hilbert-uX",
		"nature+fable-hilbert-z9", "postmap(", "postmap()", "postmap(quantum)",
		"domain-hilbert-u2-extra",
	} {
		if p, err := ParsePartitioner(spec); err == nil {
			t.Errorf("%q parsed to %q, want error", spec, p.Name())
		}
	}
}

func TestParsePartitionerFreshInstances(t *testing.T) {
	a, _ := ParsePartitioner("postmap(domain)")
	b, _ := ParsePartitioner("postmap(domain)")
	if a == b {
		t.Error("stateful partitioners must not be shared between calls")
	}
}

// FuzzParsePartitioner drives the wire spec grammar with arbitrary
// input. ParsePartitioner must never panic; every accepted spec's
// canonical Name() must re-parse to the same Name(); and the server's
// name-based statefulness rule (statefulSpec, which keeps results out
// of the cache and tier) must agree with the simulator's instance-based
// marker — the partitioner implements Reset().
func FuzzParsePartitioner(f *testing.F) {
	for _, seed := range []string{
		// Every alias in the ParsePartitioner doc comment.
		"domain", "domain-hilbert", "domain-morton-u4", "domain-rowmajor-u1",
		"patch", "patch-lpt", "hybrid", "nature+fable",
		"nature+fable-hilbert-u2-q4-frac", "nature+fable-morton-u1-q2-whole",
		"postmap(domain)", "postmap(patch-lpt)", "postmap(hybrid)",
		// Case, whitespace, nesting, and near misses.
		"POSTMAP( Domain-Morton )", "postmap(postmap(domain))",
		"postmap(", "domain-hilbert-u0", "nature+fable-hilbert-z9", "",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePartitioner(spec)
		if err != nil {
			return
		}
		name := p.Name()
		p2, err := ParsePartitioner(name)
		if err != nil {
			t.Fatalf("%q: canonical name %q does not re-parse: %v", spec, name, err)
		}
		if p2.Name() != name {
			t.Fatalf("%q: re-parse changed name %q -> %q", spec, name, p2.Name())
		}
		_, resets := p.(interface{ Reset() })
		if statefulSpec(name) != resets {
			t.Fatalf("%q: statefulSpec(%q) = %v, but Reset() present = %v", spec, name, statefulSpec(name), resets)
		}
	})
}
