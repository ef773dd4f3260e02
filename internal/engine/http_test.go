package engine

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"acic/internal/graph"
	"acic/internal/pq"
	"acic/internal/seq"
)

func getJSON(t *testing.T, client *http.Client, url string, out any) *http.Response {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp
}

func TestHTTPSSSPAndCacheHit(t *testing.T) {
	g := testGraph()
	e := mustEngine(t, g, Config{})
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	var first SSSPResponse
	if resp := getJSON(t, srv.Client(), srv.URL+"/sssp?source=7&vertices=0,7,100", &first); resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if first.CacheHit {
		t.Error("first query reported cache_hit")
	}
	oracle := seq.Dijkstra(g, 7)
	wantReach, wantSum := 0, 0.0
	for _, d := range oracle.Dist {
		if !math.IsInf(d, 1) {
			wantReach++
			wantSum += d
		}
	}
	if first.Reachable != wantReach {
		t.Errorf("reachable = %d, want %d", first.Reachable, wantReach)
	}
	if math.Abs(first.Checksum-wantSum) > 1e-6*math.Max(1, wantSum) {
		t.Errorf("checksum = %g, want %g", first.Checksum, wantSum)
	}
	if len(first.Distances) != 3 {
		t.Fatalf("got %d distances, want 3", len(first.Distances))
	}
	if d := first.Distances[1]; d.Vertex != 7 || d.Dist == nil || *d.Dist != 0 {
		t.Errorf("distances[1] = %+v, want source at distance 0", d)
	}

	var second SSSPResponse
	getJSON(t, srv.Client(), srv.URL+"/sssp?source=7", &second)
	if !second.CacheHit {
		t.Error("repeat query did not report cache_hit")
	}
}

// TestHTTPSSSPChecksumPastMaxFloat: two distances of 1e308 sum past the
// largest float64, which JSON cannot carry as +Inf; the reply is still a
// decodable 200 whose checksum is capped at math.MaxFloat64 (before the
// cap the handler sent a 200 with an empty body).
func TestHTTPSSSPChecksumPastMaxFloat(t *testing.T) {
	g := graph.MustBuild(3, []graph.Edge{{From: 0, To: 1, Weight: 1e308}, {From: 0, To: 2, Weight: 1e308}})
	e := mustEngine(t, g, Config{})
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()
	var resp SSSPResponse
	if r := getJSON(t, srv.Client(), srv.URL+"/sssp?source=0", &resp); r.StatusCode != http.StatusOK {
		t.Fatalf("status %d", r.StatusCode)
	}
	if resp.Reachable != 3 || resp.Checksum != math.MaxFloat64 {
		t.Errorf("reachable %d, checksum %g; want 3 and %g", resp.Reachable, resp.Checksum, math.MaxFloat64)
	}
}

// TestHTTPCancelledRequestFreesSlot: a client that goes away while its
// /sssp miss computes cancels the miss through the request's context, so
// the slot comes back, nothing is cached and the miss counts as cancelled.
func TestHTTPCancelledRequestFreesSlot(t *testing.T) {
	e := mustEngine(t, testGraph(), Config{MaxInFlight: 1})
	inner := e.solve
	entered := make(chan struct{})
	e.solve = func(ctx context.Context, v *graphVersion, source int, q *pq.BucketQueue) (solution, error) {
		close(entered)
		<-ctx.Done() // held until the request's context ends
		return inner(ctx, v, source, q)
	}
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/sssp?source=5", nil)
	if err != nil {
		t.Fatal(err)
	}
	clientErr := make(chan error, 1)
	go func() {
		resp, err := srv.Client().Do(req)
		if err == nil {
			resp.Body.Close()
		}
		clientErr <- err
	}()
	<-entered
	cancel()
	if err := <-clientErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("client request returned %v, want context.Canceled", err)
	}
	// Close returns once the held miss has seen the client go and freed
	// its slot; the deadline only bounds a failure.
	drainCtx, stop := context.WithTimeout(context.Background(), time.Minute)
	defer stop()
	if err := e.Close(drainCtx); err != nil {
		t.Fatalf("the cancelled miss never freed its slot: %v", err)
	}
	snap := e.MetricsSnapshot()
	if n, c, errs := e.cache.len(), snap.Counter("engine.cancelled"), snap.Counter("engine.errors"); e.InFlight() != 0 || n != 0 || c != 1 || errs != 0 {
		t.Errorf("after the disconnect: inflight %d, %d cached, engine.cancelled %d, engine.errors %d; want 0, 0, 1, 0",
			e.InFlight(), n, c, errs)
	}
}

func TestHTTPPath(t *testing.T) {
	g := testGraph()
	e := mustEngine(t, g, Config{})
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	oracle := seq.Dijkstra(g, 1)
	target := -1
	for v, d := range oracle.Dist {
		if v != 1 && !math.IsInf(d, 1) {
			target = v
			break
		}
	}
	if target < 0 {
		t.Skip("no reachable target")
	}
	var pr PathResponse
	url := srv.URL + "/path?source=1&target=" + strconv.Itoa(target)
	if resp := getJSON(t, srv.Client(), url, &pr); resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !pr.Reachable || pr.Distance == nil {
		t.Fatalf("path response: %+v", pr)
	}
	if want := oracle.Dist[target]; math.Abs(*pr.Distance-want) > 1e-9*math.Max(1, want) {
		t.Errorf("distance = %g, oracle %g", *pr.Distance, want)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	e := mustEngine(t, testGraph(), Config{})
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	for _, path := range []string{
		"/sssp",                   // missing source
		"/sssp?source=abc",        // non-integer
		"/sssp?source=99999",      // out of range
		"/sssp?source=-1",         // negative
		"/sssp?source=1&limit=-2", // bad limit
		"/sssp?source=1&vertices=0,bogus",
		"/path?source=1",          // missing target
		"/path?source=1&target=x", // non-integer
		"/path?source=1&target=99999",
	} {
		var er struct {
			Error string `json:"error"`
		}
		resp := getJSON(t, srv.Client(), srv.URL+path, &er)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, resp.StatusCode)
		}
		if er.Error == "" {
			t.Errorf("%s: empty error body", path)
		}
	}
}

func TestHTTPSaturation429(t *testing.T) {
	e := mustEngine(t, testGraph(), Config{MaxInFlight: 1, MaxQueue: 1, QueueTimeout: 20 * time.Millisecond})
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	// Hold the only slot and fill the queue, exactly as TestSaturationSheds
	// does, then watch the HTTP layer translate the shed.
	slot, err := e.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	queuedDone := make(chan struct{})
	go func() {
		defer close(queuedDone)
		resp, err := srv.Client().Get(srv.URL + "/sssp?source=1")
		if err == nil {
			resp.Body.Close()
		}
	}()
	for e.queued.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	resp := getJSON(t, srv.Client(), srv.URL+"/sssp?source=2", nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	<-queuedDone
	e.releaseSlot(slot)
}

func TestHTTPHealthzAndMetrics(t *testing.T) {
	e := mustEngine(t, testGraph(), Config{})
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	var h Health
	if resp := getJSON(t, srv.Client(), srv.URL+"/healthz", &h); resp.StatusCode != 200 {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	if h.Status != "ok" || h.Vertices != 400 {
		t.Errorf("healthz = %+v", h)
	}

	getJSON(t, srv.Client(), srv.URL+"/sssp?source=0", nil) // a miss
	getJSON(t, srv.Client(), srv.URL+"/sssp?source=0", nil) // a hit
	getJSON(t, srv.Client(), srv.URL+"/path?source=1&target=2", nil)
	var snap struct {
		Counters []struct {
			Name  string `json:"name"`
			Total int64  `json:"total"`
		} `json:"counters"`
		Histograms []struct {
			Name  string `json:"name"`
			Count int64  `json:"count"`
		} `json:"histograms"`
	}
	if resp := getJSON(t, srv.Client(), srv.URL+"/metrics", &snap); resp.StatusCode != 200 {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	found := false
	for _, c := range snap.Counters {
		if c.Name == "engine.queries" && c.Total >= 1 {
			found = true
		}
	}
	if !found {
		t.Error("metrics snapshot missing engine.queries")
	}
	// Latency by outcome: one histogram each, observed once by the three
	// requests above; nothing was cancelled.
	want := map[string]int64{"engine.hit_us": 1, "engine.miss_us": 1, "engine.path_us": 1, "engine.cancelled_us": 0}
	for _, h := range snap.Histograms {
		if n, ok := want[h.Name]; ok {
			if h.Count != n {
				t.Errorf("%s counted %d, want %d", h.Name, h.Count, n)
			}
			delete(want, h.Name)
		}
	}
	for name := range want {
		t.Errorf("metrics snapshot missing histogram %s", name)
	}
}

// TestRetryAfterTracksServiceTime pins the adaptive 429 hint: the floor
// before any query completes, the rounded-up recent mean once queries have
// run, and the ceiling when the mean is pathological.
func TestRetryAfterTracksServiceTime(t *testing.T) {
	e := mustEngine(t, testGraph(), Config{})

	if got := e.retryAfterSeconds(); got != minRetryAfterSeconds {
		t.Errorf("cold engine Retry-After = %d, want floor %d", got, minRetryAfterSeconds)
	}

	// Sub-second queries stay at the floor: the header has whole-second
	// resolution and 0 would mean "retry immediately".
	e.svcNanos.Store((50 * time.Millisecond).Nanoseconds())
	if got := e.retryAfterSeconds(); got != 1 {
		t.Errorf("50ms mean Retry-After = %d, want 1", got)
	}

	// A multi-second mean rounds up, never down: telling a client to come
	// back sooner than the mean service time just re-sheds it.
	e.svcNanos.Store((2500 * time.Millisecond).Nanoseconds())
	if got := e.retryAfterSeconds(); got != 3 {
		t.Errorf("2.5s mean Retry-After = %d, want 3", got)
	}

	e.svcNanos.Store((5 * time.Minute).Nanoseconds())
	if got := e.retryAfterSeconds(); got != maxRetryAfterSeconds {
		t.Errorf("5m mean Retry-After = %d, want ceiling %d", got, maxRetryAfterSeconds)
	}

	// The EWMA converges toward a stable service time from both sides.
	e.svcNanos.Store(0)
	for i := 0; i < 64; i++ {
		e.observeService(800 * time.Millisecond)
	}
	mean := time.Duration(e.svcNanos.Load())
	if mean < 700*time.Millisecond || mean > 900*time.Millisecond {
		t.Errorf("EWMA after steady 800ms observations = %v", mean)
	}
}

// TestQueriesFeedServiceEWMA checks real queries move the mean.
func TestQueriesFeedServiceEWMA(t *testing.T) {
	e := mustEngine(t, testGraph(), Config{})
	if _, err := e.Query(context.Background(), 0, QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	if e.svcNanos.Load() == 0 {
		t.Error("completed query left the service-time EWMA at zero")
	}
}
