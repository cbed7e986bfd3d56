package tier

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"samr/internal/backoff"
	"samr/internal/fault"
)

// member is one live fleet participant: a Tier served over the real
// peer protocol by an httptest server. The handler closes over the
// member so the server can start — and its URL enter the shared peer
// list — before the Tier exists.
type member struct {
	tr *Tier
	ts *httptest.Server
}

func newMembers(t *testing.T, n int) []*member {
	t.Helper()
	ms := make([]*member, n)
	urls := make([]string, n)
	for i := range ms {
		m := &member{}
		mux := http.NewServeMux()
		mux.HandleFunc("GET /v1/tier/{key}", func(w http.ResponseWriter, r *http.Request) {
			m.tr.ServeGet(w, r.PathValue("key"))
		})
		mux.HandleFunc("PUT /v1/tier/{key}", func(w http.ResponseWriter, r *http.Request) {
			blob, _ := io.ReadAll(r.Body)
			m.tr.ServePut(w, r.PathValue("key"), blob)
		})
		m.ts = httptest.NewServer(mux)
		t.Cleanup(m.ts.Close)
		urls[i] = m.ts.URL
		ms[i] = m
	}
	for _, m := range ms {
		tr, err := New(Config{
			Dir:   t.TempDir(),
			Peers: urls,
			Self:  m.ts.URL,
			Peer:  PeerConfig{Retry: backoff.Policy{Attempts: 2, Base: time.Millisecond}},
		})
		if err != nil {
			t.Fatal(err)
		}
		m.tr = tr
	}
	return ms
}

// TestFailoverReadAndStore drives breaker state into the ring: with the
// owner's breaker open, a lookup consults the next peer in rendezvous
// order (one hop) and a store diverts its offer there, and both are
// counted.
func TestFailoverReadAndStore(t *testing.T) {
	ms := newMembers(t, 3)
	self := ms[2]
	byURL := map[string]*member{}
	for _, m := range ms {
		byURL[m.ts.URL] = m
	}
	// A key owned by another member, with its fleet-wide stand-in (the
	// first available non-self peer after the owner in rendezvous order).
	var key, owner, standIn string
	for i := 0; standIn == ""; i++ {
		k := Key("failover", fmt.Sprint(i))
		ranked := self.tr.Ring().Ranked(k)
		if ranked[0] == self.ts.URL {
			continue
		}
		for _, p := range ranked[1:] {
			if p != self.ts.URL {
				key, owner, standIn = k, ranked[0], p
				break
			}
		}
	}

	// Open the owner's breaker as self sees it (default FailLimit 3).
	c := self.tr.Client()
	for i := 0; i < 3; i++ {
		c.report(owner, false)
	}
	if c.Available(owner) {
		t.Fatal("owner breaker still admits traffic")
	}

	// Failover read: the blob lives only on the stand-in.
	if err := byURL[standIn].tr.Disk().Put(key, smallBlob()); err != nil {
		t.Fatal(err)
	}
	blob, ok := self.tr.Lookup(bg, key)
	if !ok || !bytes.Equal(blob, smallBlob()) {
		t.Fatal("failover read missed a blob the stand-in holds")
	}
	if _, ok := self.tr.Disk().Get(key); !ok {
		t.Fatal("failover read skipped the disk write-through")
	}

	// Failover store: the offer lands on the stand-in, not the owner.
	key2 := ""
	for i := 0; key2 == ""; i++ {
		k := Key("failover-store", fmt.Sprint(i))
		if self.tr.Ring().Owner(k) == owner {
			key2 = k
		}
	}
	self.tr.Store(key2, smallBlob())
	ranked2 := self.tr.Ring().Ranked(key2)
	var standIn2 string
	for _, p := range ranked2[1:] {
		if p != self.ts.URL {
			standIn2 = p
			break
		}
	}
	if !byURL[standIn2].tr.Disk().Has(key2) {
		t.Fatal("failover store never reached the stand-in")
	}
	if byURL[owner].tr.Disk().Has(key2) {
		t.Fatal("failover store reached the open owner")
	}

	st := self.tr.Stats()
	if st.FailoverReads != 1 || st.FailoverStores != 1 {
		t.Fatalf("failover counters = (%d, %d), want (1, 1)", st.FailoverReads, st.FailoverStores)
	}
	found := false
	for _, b := range st.Breakers {
		if b.Peer == owner && b.State == BreakerOpen {
			found = true
		}
	}
	if !found {
		t.Fatalf("stats breakers = %+v, want the owner open", st.Breakers)
	}
}

// TestPeerClientInjectedFaults pins the injection contract: an injected
// peer.get error feeds the breaker without sending any request.
func TestPeerClientInjectedFaults(t *testing.T) {
	var calls int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		http.Error(w, "not found", http.StatusNotFound)
	}))
	defer ts.Close()
	in, err := fault.New(7, fault.Plan{Point: FaultPeerGet, Mode: fault.Error})
	if err != nil {
		t.Fatal(err)
	}
	c := NewPeerClient(PeerConfig{
		Retry:     backoff.Policy{Attempts: 2, Base: time.Millisecond},
		FailLimit: 1,
		Faults:    in,
	})
	if _, ok := c.Get(bg, ts.URL, Key("a")); ok {
		t.Fatal("injected transport failure reported a hit")
	}
	if calls != 0 {
		t.Fatal("injected failure still sent a request")
	}
	if got := breakerStateOf(c, ts.URL); got != BreakerOpen {
		t.Fatalf("breaker after injected failure = %q, want open (FailLimit 1)", got)
	}

}
