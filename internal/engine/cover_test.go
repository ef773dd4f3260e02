package engine

// Branch-level tests for the engine surfaces the end-to-end suites reach
// only racily or not at all: accessors and Health, the cache failure
// protocol (failed entries evicted, stale fails ignored, a follower of a
// failed entry recomputes), follow cancellation, and the HTTP
// parameter/error edges.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestAccessorsAndHealth(t *testing.T) {
	g := testGraph()
	e := mustEngine(t, g, Config{})
	if !slices.Equal(snapshot(e).Edges(), g.Edges()) {
		t.Error("the engine's graph differs from the one it was built over")
	}
	if e.Epoch() != 0 {
		t.Errorf("fresh engine epoch %d, want 0", e.Epoch())
	}
	if e.Draining() {
		t.Error("Draining() true before Close")
	}
	h := e.Health()
	if h.Status != "ok" || h.Vertices != g.NumVertices() || h.Edges != g.NumEdges() || h.MaxInFlight != 4 {
		t.Errorf("health %+v, want ok over |V|=%d |E|=%d with 4 slots", h, g.NumVertices(), g.NumEdges())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if !e.Draining() {
		t.Error("Draining() false after Close")
	}
	if got := e.Health().Status; got != "draining" {
		t.Errorf("health status %q after Close, want draining", got)
	}
}

func TestCacheFailProtocol(t *testing.T) {
	boom := errors.New("boom")
	c := newLRUCache(2)
	k := cacheKey{epoch: 0, source: 1}
	ent, leader := c.getOrCreate(k)
	if !leader {
		t.Fatal("first getOrCreate was not the leader")
	}
	waited := make(chan error, 1)
	go func() {
		<-ent.ready
		waited <- ent.err
	}()
	c.fail(ent, boom)
	if err := <-waited; !errors.Is(err, boom) {
		t.Errorf("waiter saw %v, want boom", err)
	}
	if _, ok := c.get(k); ok {
		t.Error("failed entry still resident; retries would re-serve the failure")
	}
	ent2, leader2 := c.getOrCreate(k)
	if !leader2 {
		t.Error("key not re-claimable after a failure")
	}
	// A fail of a stale entry (already evicted and re-created under the same
	// key) must not remove the live one.
	stale := &cacheEntry{key: k, ready: make(chan struct{})}
	c.fail(stale, boom)
	if got, ok := c.get(k); !ok || got != ent2 {
		t.Error("stale fail removed the live entry")
	}
}

// TestQueryFailedEntryFallThrough pins the single-flight failure protocol
// end to end: a resident entry whose computation errored sends the fast
// path through errEntryFailed, and a query whose own context is live
// drops the entry and recomputes the source instead of inheriting the
// leader's error.
func TestQueryFailedEntryFallThrough(t *testing.T) {
	g := testGraph()
	e := mustEngine(t, g, Config{})
	key := cacheKey{epoch: 0, source: 7}

	// Plant a completed-with-error entry that is still resident, as a
	// waiter would observe mid-race between the leader's close(ready) and
	// its removal of the entry.
	ent, leader := e.cache.getOrCreate(key)
	if !leader {
		t.Fatal("setup entry not leader-created")
	}
	ent.err = context.Canceled
	close(ent.ready)

	res, err := e.Query(context.Background(), 7, QueryOptions{})
	if err != nil || res.CacheHit {
		t.Fatalf("query over failed entry: res=%+v err=%v, want a fresh computation", res, err)
	}
	if got, ok := e.cache.get(key); !ok || got == ent {
		t.Error("the failed entry is still resident, or nothing replaced it")
	}
}

func TestQueryCancelledWhileAwaiting(t *testing.T) {
	g := testGraph()
	e := mustEngine(t, g, Config{})
	key := cacheKey{epoch: 0, source: 9}
	if _, leader := e.cache.getOrCreate(key); !leader {
		t.Fatal("setup entry not leader-created")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Query(ctx, 9, QueryOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("query awaiting an in-flight entry under a cancelled context returned %v", err)
	}
}

func TestHTTPParameterAndErrorEdges(t *testing.T) {
	g := testGraph()
	e := mustEngine(t, g, Config{})
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	for _, tc := range []struct {
		path string
		code int
	}{
		{"/sssp?source=1&vertices=abc", 400},
		{"/sssp?source=1&vertices=99999", 400},
		{"/sssp?source=1&limit=zap", 400},
		{"/sssp?source=1&limit=999999", 200}, // clamped to |V|
		{"/sssp?source=", 400},
		{"/path?source=1&target=nope", 400},
	} {
		resp, err := http.Get(srv.URL + tc.path)
		if err != nil {
			t.Fatalf("GET %s: %v", tc.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("GET %s: status %d, want %d", tc.path, resp.StatusCode, tc.code)
		}
	}

	// /mutate bounds: a body past the byte limit is 413 and a batch past
	// the mutation cap 400, and neither reaches the graph; a batch of
	// exactly the cap is applied.
	de, _ := mustDynamicEngine(t, g, Config{})
	dsrv := httptest.NewServer(de.Handler())
	defer dsrv.Close()
	one := `{"op":"insert","from":0,"to":1,"weight":1}`
	for _, tc := range []struct {
		name, body string
		code       int
	}{
		{"body over limit", `{"mutations":[` + one + strings.Repeat(" ", maxMutateBodyBytes) + `]}`, http.StatusRequestEntityTooLarge},
		{"batch over cap", `{"mutations":[` + strings.Repeat(one+",", maxMutateBatch) + one + `]}`, http.StatusBadRequest},
		{"batch at cap", `{"mutations":[` + strings.Repeat(one+",", maxMutateBatch-1) + one + `]}`, http.StatusOK},
	} {
		resp, err := http.Post(dsrv.URL+"/mutate", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("POST /mutate %s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("POST /mutate %s: status %d, want %d", tc.name, resp.StatusCode, tc.code)
		}
	}
	if got := de.Epoch(); got != 1 {
		t.Errorf("epoch %d after the bounded batches, want 1 (only the batch at the cap applies)", got)
	}

	// Unrecognized errors map to 500.
	rec := httptest.NewRecorder()
	e.writeError(rec, errors.New("wholly unexpected"))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("unknown error mapped to %d, want 500", rec.Code)
	}
}
