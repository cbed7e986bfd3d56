package server

import (
	"io"
	"net/http"
	"testing"

	"samr/internal/fault"
	"samr/internal/pool"
)

// TestPoolDispatchFaultsScopedToServer pins that Config.Faults arms the
// pool.dispatch point for that Server's own requests only. Two Servers
// share one process; only the first is armed. Dispatch faults must
// never change a byte: the armed Server's batch partition and simulate
// bodies match an unarmed baseline while its injector fires, and the
// second Server's requests neither reach that injector nor disarm it.
func TestPoolDispatchFaultsScopedToServer(t *testing.T) {
	plans, err := fault.Parse("pool.dispatch:error:prob=0.5")
	if err != nil {
		t.Fatal(err)
	}
	in, err := fault.New(11, plans...)
	if err != nil {
		t.Fatal(err)
	}

	hs := []Hierarchy{testHierarchy(1), testHierarchy(3), testHierarchy(5), testHierarchy(7)}
	partReq := PartitionRequest{Partitioner: "domain", NProcs: 8, Hierarchies: hs}
	simReq := SimulateRequest{Trace: "synthetic", Partitioner: "domain", NProcs: 4, IncludeSteps: true}
	start := func(cfg Config) string {
		srv, ts := newTestServer(t, cfg)
		srv.Registry().Register("synthetic", testTrace(6))
		return ts.URL
	}
	body := func(url string, req any) string {
		t.Helper()
		r := post(t, url, req, nil)
		raw, _ := io.ReadAll(r.Body)
		if r.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d: %s", url, r.StatusCode, raw)
		}
		return string(raw)
	}
	ops := func() uint64 { return in.Stats()[pool.FaultDispatch].Ops }

	base := start(Config{})
	wantPart := body(base+"/v1/partition", partReq)
	wantSim := body(base+"/v1/simulate", simReq)
	if ops() != 0 {
		t.Fatal("unarmed baseline server consulted the injector")
	}

	a := start(Config{Faults: in})
	b := start(Config{})

	if got := body(a+"/v1/partition", partReq); got != wantPart {
		t.Errorf("armed batch partition differs from baseline\n got: %s\nwant: %s", got, wantPart)
	}
	for i := 0; i < 4; i++ {
		if got := body(a+"/v1/simulate", simReq); got != wantSim {
			t.Fatalf("armed simulate #%d differs from baseline\n got: %s\nwant: %s", i, got, wantSim)
		}
	}
	st := in.Stats()[pool.FaultDispatch]
	if st.Ops == 0 || st.Injected == 0 {
		t.Fatalf("armed server's fan-outs never fired the dispatch fault: %+v", st)
	}

	before := ops()
	if got := body(b+"/v1/partition", partReq); got != wantPart {
		t.Errorf("unarmed batch partition differs from baseline\n got: %s\nwant: %s", got, wantPart)
	}
	if got := body(b+"/v1/simulate", simReq); got != wantSim {
		t.Errorf("unarmed simulate differs from baseline\n got: %s\nwant: %s", got, wantSim)
	}
	if ops() != before {
		t.Fatalf("unarmed server advanced the other server's injector: ops %d -> %d", before, ops())
	}
	if got := body(a+"/v1/simulate", simReq); got != wantSim {
		t.Errorf("armed simulate after the unarmed server's requests differs from baseline\n got: %s\nwant: %s", got, wantSim)
	}
	if ops() == before {
		t.Fatal("the unarmed server's requests disarmed the armed one")
	}
}
