package fault

import (
	"errors"
	"sync"
	"syscall"
	"testing"
	"time"
)

// firedIndices runs n ops through a fresh injector and returns the
// 1-based indices that received a non-zero decision.
func firedIndices(t *testing.T, seed int64, n int, plans ...Plan) []int {
	t.Helper()
	in, err := New(seed, plans...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var fired []int
	for i := 1; i <= n; i++ {
		if d := in.Hit(plans[0].Point); d != (Decision{}) {
			fired = append(fired, i)
		}
	}
	return fired
}

func TestNilInjectorNeverFires(t *testing.T) {
	var in *Injector
	if d := in.Hit("disk.get"); d != (Decision{}) {
		t.Fatalf("nil injector fired: %+v", d)
	}
	if in.Stats() != nil {
		t.Fatal("nil injector has stats")
	}
	if in.String() != "off" {
		t.Fatalf("nil injector String = %q", in.String())
	}
}

func TestUnarmedPointNeverFires(t *testing.T) {
	in, err := New(1, Plan{Point: "disk.put", Mode: Error})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if d := in.Hit("peer.get"); d != (Decision{}) {
			t.Fatalf("unarmed point fired: %+v", d)
		}
	}
}

func TestEveryAfterCountSchedule(t *testing.T) {
	got := firedIndices(t, 7, 20, Plan{Point: "p", Mode: Error, Every: 3, After: 2, Count: 4})
	// After 2: eligible index k = i-2; fires at k % 3 == 0 → i = 5, 8, 11, 14 (count-capped).
	want := []int{5, 8, 11, 14}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

func TestSameSeedSameSchedule(t *testing.T) {
	plan := Plan{Point: "p", Mode: Error, Prob: 0.3}
	a := firedIndices(t, 42, 500, plan)
	b := firedIndices(t, 42, 500, plan)
	if len(a) == 0 || len(a) == 500 {
		t.Fatalf("degenerate schedule: %d/500 fired", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("same seed diverged: %d vs %d firings", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at firing %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestDifferentSeedDifferentSchedule(t *testing.T) {
	plan := Plan{Point: "p", Mode: Error, Prob: 0.3}
	a := firedIndices(t, 1, 500, plan)
	b := firedIndices(t, 2, 500, plan)
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestConcurrentFiringCountMatchesSequential(t *testing.T) {
	// The set of firing indices is fixed by the schedule, so the total
	// firing count over N ops is interleaving-independent.
	plan := Plan{Point: "p", Mode: Error, Every: 3, Count: 50}
	const n = 400
	seq := len(firedIndices(t, 9, n, plan))

	in, err := New(9, plan)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	fired := 0
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := 0
			for i := 0; i < n/8; i++ {
				if in.Hit("p") != (Decision{}) {
					local++
				}
			}
			mu.Lock()
			fired += local
			mu.Unlock()
		}()
	}
	wg.Wait()
	if fired != seq {
		t.Fatalf("concurrent firings %d, sequential %d", fired, seq)
	}
	st := in.Stats()["p"]
	if st.Ops != n || st.Injected != uint64(seq) {
		t.Fatalf("stats %+v, want ops=%d injected=%d", st, n, seq)
	}
}

func TestModes(t *testing.T) {
	in, err := New(1,
		Plan{Point: "a", Mode: NoSpace},
		Plan{Point: "b", Mode: Latency, Delay: time.Millisecond},
		Plan{Point: "c", Mode: Corrupt},
	)
	if err != nil {
		t.Fatal(err)
	}
	if d := in.Hit("a"); !errors.Is(d.Err, syscall.ENOSPC) {
		t.Fatalf("NoSpace decision %+v not ENOSPC", d)
	}
	if d := in.Hit("b"); d.Err != nil || d.Delay != time.Millisecond {
		t.Fatalf("Latency decision %+v", d)
	}
	if d := in.Hit("c"); !d.Corrupt || d.Err != nil {
		t.Fatalf("Corrupt decision %+v", d)
	}
}

func TestDamage(t *testing.T) {
	orig := []byte("hello world")
	b := append([]byte(nil), orig...)
	Damage(b)
	diff := 0
	for i := range b {
		if b[i] != orig[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("Damage changed %d bytes, want 1", diff)
	}
	if out := Damage(nil); out != nil {
		t.Fatalf("Damage(nil) = %v", out)
	}
}

func TestParse(t *testing.T) {
	plans, err := Parse("disk.put:enospc:every=7,count=3; peer.get:latency:delay=20ms,prob=0.2 ;disk.get:corrupt")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(plans) != 3 {
		t.Fatalf("got %d plans", len(plans))
	}
	if p := plans[0]; p.Point != "disk.put" || p.Mode != NoSpace || p.Every != 7 || p.Count != 3 {
		t.Fatalf("plan 0: %+v", p)
	}
	if p := plans[1]; p.Point != "peer.get" || p.Mode != Latency || p.Delay != 20*time.Millisecond || p.Prob != 0.2 {
		t.Fatalf("plan 1: %+v", p)
	}
	if p := plans[2]; p.Point != "disk.get" || p.Mode != Corrupt {
		t.Fatalf("plan 2: %+v", p)
	}
	if plans, err := Parse("  "); err != nil || plans != nil {
		t.Fatalf("empty spec: %v, %v", plans, err)
	}
	for _, bad := range []string{
		"disk.put",                 // no mode
		"disk.put:explode",         // unknown mode
		"disk.put:error:zap=1",     // unknown option
		"disk.put:error:every=x",   // bad int
		"disk.put:latency",         // latency without delay
		"disk.put:error:prob=-0.5", // negative
		":error",                   // empty point
		"disk.put:latency:delay=-1s",
	} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) succeeded", bad)
		}
	}
}

func TestStringSummarizes(t *testing.T) {
	in, err := New(1,
		Plan{Point: "b", Mode: Error},
		Plan{Point: "a", Mode: Latency, Delay: time.Second},
	)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := in.String(), "a:latency:delay=1s;b:error"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

// FuzzParse drives the -faults grammar with arbitrary specs. Parse must
// never panic, and any plan list it accepts must arm an injector whose
// Hit, Stats, and String survive a few operations per armed point.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"",
		"disk.put:enospc:every=7,count=3;peer.get:latency:delay=20ms,prob=0.2",
		"pool.dispatch:error",
		"pool.dispatch:error:prob=0.5",
		"disk.get:corrupt:after=2,every=5",
		"admit.accept:error:count=1;admit.shed:latency:delay=1ms",
		"session.snapshot.put:corrupt;session.snapshot.get:latency:delay=3s",
		"peer.manifest:latency:delay=1h,prob=NaN",
		" ; p:error: ,every=2 ;",
		"p:error:bogus=1",
		"p:latency",
		"p",
	} {
		f.Add(seed, int64(1))
	}
	f.Fuzz(func(t *testing.T, spec string, seed int64) {
		plans, err := Parse(spec)
		if err != nil {
			return
		}
		in, err := New(seed, plans...)
		if err != nil {
			t.Fatalf("Parse accepted %q but New rejected it: %v", spec, err)
		}
		hits := make(map[string]uint64)
		for _, p := range plans {
			for i := 0; i < 3; i++ {
				in.Hit(p.Point)
				hits[p.Point]++
			}
		}
		for point, n := range hits {
			if got := in.Stats()[point].Ops; got != n {
				t.Fatalf("%q: point %q counted %d ops, want %d", spec, point, got, n)
			}
		}
		_ = in.String()
	})
}
