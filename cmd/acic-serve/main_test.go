package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"acic/internal/engine"
	"acic/internal/gen"
	"acic/internal/graph"
	"acic/internal/seq"
)

func TestLoadGraphGeneratedKinds(t *testing.T) {
	for _, kind := range []string{"rmat", "random", "grid"} {
		g, err := loadGraph("", 0, kind, 8, 4, 1)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if g.NumVertices() == 0 {
			t.Errorf("%s: empty", kind)
		}
	}
	if _, err := loadGraph("", 0, "bogus", 8, 4, 1); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := loadGraph("nosuch.csv", 0, "", 0, 0, 0); err == nil {
		t.Error("-input without -vertices accepted")
	}
}

// TestServerTimeouts pins the daemon's connection timeouts: headers and
// idle keep-alives are bounded, writes are not (a miss may run long).
func TestServerTimeouts(t *testing.T) {
	srv := newServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout != 10*time.Second {
		t.Errorf("ReadHeaderTimeout = %v, want 10s", srv.ReadHeaderTimeout)
	}
	if srv.IdleTimeout != 2*time.Minute {
		t.Errorf("IdleTimeout = %v, want 2m", srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 || srv.ReadTimeout != 0 {
		t.Errorf("WriteTimeout = %v, ReadTimeout = %v, want none", srv.WriteTimeout, srv.ReadTimeout)
	}
}

// TestServeInProcess drives the serve loop without exec'ing a binary: it
// binds port 0, issues one query of each shape over real HTTP, then cancels
// the context (standing in for SIGTERM) and requires a clean drain. The
// exec'd TestDaemonSmoke proves the wiring end to end; this variant makes
// the same loop visible to the coverage profile.
func TestServeInProcess(t *testing.T) {
	g, err := loadGraph("", 0, "random", 8, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(g, engine.Config{MaxInFlight: 2})
	if err != nil {
		t.Fatal(err)
	}

	// The listen-error path returns before the serve loop starts.
	if err := serve(context.Background(), eng, g, "127.0.0.1:bogus", time.Second, io.Discard, nil); err == nil {
		t.Fatal("serve accepted an unparseable address")
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out bytes.Buffer
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- serve(ctx, eng, g, "127.0.0.1:0", 10*time.Second, &out, func(a net.Addr) { ready <- a })
	}()
	var base string
	select {
	case a := <-ready:
		base = "http://" + a.String()
	case <-time.After(10 * time.Second):
		t.Fatal("serve never signalled readiness")
	}

	for _, q := range []struct {
		path string
		code int
	}{
		{"/healthz", 200},
		{"/sssp?source=3", 200},
		{"/sssp?source=3", 200}, // repeat rides the cache path
		{"/sssp?source=3&vertices=0,5,10", 200},
		{"/path?source=0&target=200", 200},
		{"/metrics", 200},
		{"/sssp?source=-1", 400},
	} {
		resp, err := http.Get(base + q.path)
		if err != nil {
			t.Fatalf("GET %s: %v", q.path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != q.code {
			t.Errorf("GET %s: status %d, want %d", q.path, resp.StatusCode, q.code)
		}
	}

	// This in-process engine is static; the daemon proper always serves a
	// dynamic one (see main). /mutate must map that to 501, not a panic.
	resp, err := http.Post(base+"/mutate", "application/json",
		strings.NewReader(`{"mutations":[{"op":"insert","from":0,"to":1,"weight":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Errorf("mutate on static engine: status %d, want 501", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v after cancellation", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("serve did not drain within 15s of cancellation")
	}
	s := out.String()
	if !strings.Contains(s, "listening on") || !strings.Contains(s, "draining") || !strings.Contains(s, "drained cleanly") {
		t.Errorf("serve output missing lifecycle lines: %q", s)
	}
}

// TestDaemonSmoke is the query-service smoke: build the real binary, start
// the daemon, issue concurrent single-source and point-to-point queries
// against it, assert a cache hit and a 429 under saturation, then verify
// graceful shutdown on SIGTERM. scripts/ci.sh runs it as its own stage.
func TestDaemonSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon smoke builds and execs the binary; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "acic-serve")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building acic-serve: %v", err)
	}

	// Tight admission bounds make saturation reachable from a test: one
	// executing query, one queued, everything else shed.
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-kind", "random", "-scale", "10", "-seed", "5",
		"-maxinflight", "1", "-maxqueue", "1", "-queuetimeout", "50ms")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// One goroutine owns stdout: it parses the readiness line, keeps
	// draining so the daemon never blocks on a full pipe, and only reaps
	// with Wait after EOF — Wait closes the pipe on child exit, so calling
	// it while the scanner still reads would race away the final lines.
	ready := make(chan string, 1)
	outAll := make(chan string, 1)
	exited := make(chan error, 1)
	go func() {
		var b strings.Builder
		sc := bufio.NewScanner(stdout)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			b.WriteString(line)
			b.WriteByte('\n')
			if i := strings.Index(line, "listening on "); !announced && i >= 0 {
				ready <- strings.Fields(line[i+len("listening on "):])[0]
				announced = true
			}
		}
		outAll <- b.String()
		exited <- cmd.Wait()
	}()

	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case <-time.After(60 * time.Second):
		t.Fatal("daemon never printed its readiness line")
	}

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}

	// Liveness.
	if code, _ := get("/healthz"); code != 200 {
		t.Fatalf("healthz: status %d", code)
	}

	// Single-source query, oracle-checked: the daemon generated
	// gen.Uniform(2^10, 16*2^10, seed 5), so we can regenerate it here.
	g := gen.Uniform(1<<10, 16<<10, gen.Config{Seed: 5})
	oracle := seq.Dijkstra(g, 1)
	var sr struct {
		CacheHit  bool    `json:"cache_hit"`
		Reachable int     `json:"reachable"`
		Checksum  float64 `json:"checksum"`
	}
	code, body := get("/sssp?source=1")
	if code != 200 {
		t.Fatalf("sssp: status %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	wantReach, wantSum := 0, 0.0
	for _, d := range oracle.Dist {
		if d < seq.Inf {
			wantReach++
			wantSum += d
		}
	}
	if sr.CacheHit || sr.Reachable != wantReach {
		t.Fatalf("sssp: cache_hit=%v reachable=%d, want miss with %d reachable", sr.CacheHit, sr.Reachable, wantReach)
	}
	if diff := sr.Checksum - wantSum; diff > 1e-6*wantSum || diff < -1e-6*wantSum {
		t.Fatalf("sssp checksum %g, oracle %g", sr.Checksum, wantSum)
	}

	// Repeat: must hit the LRU cache.
	code, body = get("/sssp?source=1")
	if err := json.Unmarshal(body, &sr); code != 200 || err != nil || !sr.CacheHit {
		t.Fatalf("repeat sssp: status %d hit=%v err=%v", code, sr.CacheHit, err)
	}

	// Point-to-point, oracle-checked.
	var pr struct {
		Reachable bool     `json:"reachable"`
		Distance  *float64 `json:"distance"`
	}
	code, body = get("/path?source=2&target=900")
	if code != 200 {
		t.Fatalf("path: status %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	want := seq.Dijkstra(g, 2).Dist[900]
	if want < seq.Inf {
		if !pr.Reachable || pr.Distance == nil || *pr.Distance-want > 1e-9 || want-*pr.Distance > 1e-9 {
			t.Fatalf("path: %+v, oracle %g", pr, want)
		}
	} else if pr.Reachable {
		t.Fatal("path: reachable, oracle says not")
	}

	// Bad input: out-of-range source must be a 400, not a panic.
	if code, _ := get("/sssp?source=99999"); code != 400 {
		t.Fatalf("out-of-range source: status %d, want 400", code)
	}

	// Mutation round-trip: POST /mutate inserts an edge, the epoch bumps,
	// and the repaired resident vector for source 1 serves the next query
	// as a cache hit with the post-mutation oracle checksum.
	post := func(body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(base+"/mutate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST /mutate: %v", err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}
	var mres struct {
		Epoch           uint64 `json:"epoch"`
		Inserted        int    `json:"inserted"`
		RepairedVectors int    `json:"repaired_vectors"`
	}
	code, body = post(`{"mutations":[{"op":"insert","from":1,"to":900,"weight":0.5}]}`)
	if code != 200 {
		t.Fatalf("mutate: status %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &mres); err != nil {
		t.Fatal(err)
	}
	if mres.Epoch != 1 || mres.Inserted != 1 || mres.RepairedVectors < 1 {
		t.Fatalf("mutate response %+v, want epoch 1, 1 insert, >=1 repaired vector", mres)
	}
	mg := graph.MustBuild(g.NumVertices(), append(g.Edges(), graph.Edge{From: 1, To: 900, Weight: 0.5}))
	moracle := seq.Dijkstra(mg, 1)
	wantReach, wantSum = 0, 0.0
	for _, d := range moracle.Dist {
		if d < seq.Inf {
			wantReach++
			wantSum += d
		}
	}
	var sr2 struct {
		Epoch     uint64  `json:"epoch"`
		CacheHit  bool    `json:"cache_hit"`
		Reachable int     `json:"reachable"`
		Checksum  float64 `json:"checksum"`
	}
	code, body = get("/sssp?source=1")
	if code != 200 {
		t.Fatalf("post-mutation sssp: status %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &sr2); err != nil {
		t.Fatal(err)
	}
	if sr2.Epoch != 1 || !sr2.CacheHit {
		t.Fatalf("post-mutation sssp: epoch=%d cache_hit=%v, want repaired hit at epoch 1", sr2.Epoch, sr2.CacheHit)
	}
	if sr2.Reachable != wantReach {
		t.Fatalf("post-mutation sssp: reachable %d, oracle %d", sr2.Reachable, wantReach)
	}
	if diff := sr2.Checksum - wantSum; diff > 1e-6*wantSum || diff < -1e-6*wantSum {
		t.Fatalf("post-mutation checksum %g, oracle %g", sr2.Checksum, wantSum)
	}
	// Bad mutation batches: missing edge and unknown op are 400s, and the
	// epoch stays put.
	if code, _ := post(`{"mutations":[{"op":"delete","from":1,"to":1}]}`); code != 400 {
		t.Fatalf("delete of missing edge: status %d, want 400", code)
	}
	if code, _ := post(`{"mutations":[{"op":"teleport","from":0,"to":1}]}`); code != 400 {
		t.Fatalf("unknown op: status %d, want 400", code)
	}
	var h struct {
		Epoch uint64 `json:"epoch"`
	}
	if code, body := get("/healthz"); code != 200 {
		t.Fatalf("healthz after mutate: status %d", code)
	} else if err := json.Unmarshal(body, &h); err != nil || h.Epoch != 1 {
		t.Fatalf("healthz epoch %d (err %v), want 1", h.Epoch, err)
	}

	// Saturation: fire concurrent uncached queries at a capacity of one
	// executing + one queued; the rest must shed with 429 + Retry-After.
	saw429 := false
	for round := 0; round < 5 && !saw429; round++ {
		var wg sync.WaitGroup
		var mu sync.Mutex
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func(src int) {
				defer wg.Done()
				resp, err := http.Get(fmt.Sprintf("%s/sssp?source=%d", base, src))
				if err != nil {
					return
				}
				defer resp.Body.Close()
				io.Copy(io.Discard, resp.Body)
				if resp.StatusCode == http.StatusTooManyRequests {
					mu.Lock()
					saw429 = true
					if resp.Header.Get("Retry-After") == "" {
						t.Error("429 without Retry-After")
					}
					mu.Unlock()
				}
			}(10 + round*16 + i)
		}
		wg.Wait()
	}
	if !saw429 {
		t.Fatal("never observed a 429 under 5 rounds of 16-way fan-in at capacity 2")
	}

	// Graceful shutdown: SIGTERM drains and exits 0.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("daemon exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit within 30s of SIGTERM")
	}
	if out := <-outAll; !strings.Contains(out, "drained cleanly") {
		t.Errorf("shutdown output missing 'drained cleanly': %q", out)
	}
}
