package engine

// HTTP/JSON front end. The handlers live here (rather than in
// cmd/acic-serve) so the engine's error-to-status mapping is testable with
// httptest and reusable by future transports.
//
//	GET /sssp?source=S            single-source query
//	POST /mutate                  apply a mutation batch (dynamic engines)
//	GET /sssp?source=S&vertices=a,b,c   ...returning only those distances
//	GET /sssp?source=S&limit=N    ...returning the first N distances
//	GET /sssp?source=S&metrics=1  ...attaching a per-query metrics snapshot
//	GET /path?source=S&target=T   point-to-point query
//	GET /healthz                  liveness + capacity snapshot
//	GET /metrics                  engine-level metrics registry snapshot
//
// Error mapping: ErrBadVertex and malformed parameters → 400, ErrSaturated
// → 429 with a Retry-After header, ErrDraining and context cancellation
// (the client went away or its deadline passed) → 503.

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"acic/internal/dynamic"
	"acic/internal/metrics"
)

// The Retry-After hint sent with 429 responses is derived from the
// engine's recent mean service time (see Engine.retryAfterSeconds),
// clamped to this range: never below one second (the header's
// resolution), never above thirty (a shed client should not be parked
// for minutes because one pathological query skewed the mean).
const (
	minRetryAfterSeconds = 1
	maxRetryAfterSeconds = 30
)

// retryAfterSeconds converts the service-time EWMA into a whole-second
// Retry-After hint. Before any query has completed the EWMA is zero and
// the floor applies.
func (e *Engine) retryAfterSeconds() int {
	mean := time.Duration(e.svcNanos.Load())
	secs := int((mean + time.Second - 1) / time.Second)
	if secs < minRetryAfterSeconds {
		return minRetryAfterSeconds
	}
	if secs > maxRetryAfterSeconds {
		return maxRetryAfterSeconds
	}
	return secs
}

// Handler returns the engine's HTTP API.
func (e *Engine) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /sssp", e.handleSSSP)
	mux.HandleFunc("GET /path", e.handlePath)
	mux.HandleFunc("POST /mutate", e.handleMutate)
	mux.HandleFunc("GET /healthz", e.handleHealthz)
	mux.HandleFunc("GET /metrics", e.handleMetrics)
	return mux
}

// VertexDist is one (vertex, distance, parent) triple in an /sssp response.
// Unreachable vertices carry Dist == nil (JSON has no +Inf).
type VertexDist struct {
	Vertex int32    `json:"v"`
	Dist   *float64 `json:"dist"`
	Parent int32    `json:"parent"`
}

// SSSPResponse is the /sssp payload. Distances are summarized (count +
// checksum) rather than dumped: a scale-18 vector is megabytes of JSON.
// Specific vertices come back via ?vertices= or ?limit=.
type SSSPResponse struct {
	Source    int               `json:"source"`
	Epoch     uint64            `json:"epoch"`
	CacheHit  bool              `json:"cache_hit"`
	Reachable int               `json:"reachable"`
	Checksum  float64           `json:"checksum"`
	ElapsedNS int64             `json:"elapsed_ns"`
	Distances []VertexDist      `json:"distances,omitempty"`
	Metrics   *metrics.Snapshot `json:"metrics,omitempty"`
}

// PathResponse is the /path payload.
type PathResponse struct {
	Source    int      `json:"source"`
	Target    int      `json:"target"`
	Epoch     uint64   `json:"epoch"`
	Reachable bool     `json:"reachable"`
	Distance  *float64 `json:"distance"` // nil when unreachable
	Path      []int32  `json:"path,omitempty"`
	CacheHit  bool     `json:"cache_hit"`
	Settled   int64    `json:"settled"`
	Pruned    int64    `json:"pruned"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func (e *Engine) handleSSSP(w http.ResponseWriter, r *http.Request) {
	source, err := intParam(r, "source")
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
		return
	}
	var opts QueryOptions
	if r.URL.Query().Get("metrics") == "1" {
		opts.CollectMetrics = true
	}
	res, err := e.Query(r.Context(), source, opts)
	if err != nil {
		e.writeError(w, err)
		return
	}
	resp := SSSPResponse{
		Source:    res.Source,
		Epoch:     res.Epoch,
		CacheHit:  res.CacheHit,
		Reachable: res.Reachable,
		Checksum:  res.Checksum,
		ElapsedNS: res.Elapsed.Nanoseconds(),
		Metrics:   res.Metrics,
	}
	wantVerts, err := vertexList(r, len(res.Dist))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
		return
	}
	for _, v := range wantVerts {
		vd := VertexDist{Vertex: v, Parent: res.Parent[v]}
		if d := res.Dist[v]; !math.IsInf(d, 1) {
			vd.Dist = &d
		}
		resp.Distances = append(resp.Distances, vd)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (e *Engine) handlePath(w http.ResponseWriter, r *http.Request) {
	source, err := intParam(r, "source")
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
		return
	}
	target, err := intParam(r, "target")
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
		return
	}
	pr, err := e.Path(r.Context(), source, target)
	if err != nil {
		e.writeError(w, err)
		return
	}
	resp := PathResponse{
		Source:    pr.Source,
		Target:    pr.Target,
		Epoch:     pr.Epoch,
		Reachable: pr.Reachable,
		Path:      pr.Path,
		CacheHit:  pr.CacheHit,
		Settled:   pr.Settled,
		Pruned:    pr.Pruned,
	}
	if pr.Reachable {
		resp.Distance = &pr.Distance
	}
	writeJSON(w, http.StatusOK, resp)
}

// MutationJSON is one edge mutation on the wire. Op is "insert", "delete",
// or "set_weight"; weight is ignored by deletes.
type MutationJSON struct {
	Op     string  `json:"op"`
	From   int32   `json:"from"`
	To     int32   `json:"to"`
	Weight float64 `json:"weight"`
}

// MutateRequest is the POST /mutate payload.
type MutateRequest struct {
	Mutations []MutationJSON `json:"mutations"`
}

// MutateResponse is the POST /mutate reply.
type MutateResponse struct {
	Epoch             uint64 `json:"epoch"`
	Inserted          int    `json:"inserted"`
	Deleted           int    `json:"deleted"`
	Reweighted        int    `json:"reweighted"`
	Edges             int    `json:"edges"`
	RepairedVectors   int    `json:"repaired_vectors"`
	CopiedVectors     int    `json:"copied_vectors"`
	InvalidatedLabels int    `json:"invalidated_labels"`
	ElapsedNS         int64  `json:"elapsed_ns"`
}

// Bounds on one POST /mutate: a body past maxMutateBodyBytes is answered
// 413 without being read further, and a batch of more than
// maxMutateBatch mutations 400. A batch holds mutMu while it applies and
// repairs, so an unbounded one would stall every other writer.
const (
	maxMutateBodyBytes = 8 << 20
	maxMutateBatch     = 1 << 16
)

func (e *Engine) handleMutate(w http.ResponseWriter, r *http.Request) {
	var req MutateRequest
	r.Body = http.MaxBytesReader(w, r.Body, maxMutateBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{"mutation body exceeds " + strconv.Itoa(maxMutateBodyBytes) + " bytes"})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorResponse{"bad mutation body: " + err.Error()})
		return
	}
	if len(req.Mutations) == 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{"empty mutation batch"})
		return
	}
	if len(req.Mutations) > maxMutateBatch {
		writeJSON(w, http.StatusBadRequest, errorResponse{"mutation batch of " + strconv.Itoa(len(req.Mutations)) + " exceeds " + strconv.Itoa(maxMutateBatch)})
		return
	}
	batch := make([]dynamic.Mutation, len(req.Mutations))
	for i, m := range req.Mutations {
		op, err := dynamic.ParseOp(m.Op)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
			return
		}
		batch[i] = dynamic.Mutation{Op: op, From: m.From, To: m.To, Weight: m.Weight}
	}
	mr, err := e.Mutate(batch)
	if err != nil {
		e.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, MutateResponse{
		Epoch:             mr.Epoch,
		Inserted:          mr.Inserted,
		Deleted:           mr.Deleted,
		Reweighted:        mr.Reweighted,
		Edges:             mr.Edges,
		RepairedVectors:   mr.RepairedVectors,
		CopiedVectors:     mr.CopiedVectors,
		InvalidatedLabels: mr.InvalidatedLabels,
		ElapsedNS:         mr.Elapsed.Nanoseconds(),
	})
}

func (e *Engine) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := e.Health()
	code := http.StatusOK
	if h.Status != "ok" {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

func (e *Engine) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	snap := e.MetricsSnapshot()
	_ = snap.WriteJSON(w)
}

// writeError maps engine errors to HTTP status codes.
func (e *Engine) writeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrBadVertex), errors.Is(err, ErrBadMutation):
		writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
	case errors.Is(err, ErrStaticGraph):
		writeJSON(w, http.StatusNotImplemented, errorResponse{err.Error()})
	case errors.Is(err, ErrSaturated):
		w.Header().Set("Retry-After", strconv.Itoa(e.retryAfterSeconds()))
		writeJSON(w, http.StatusTooManyRequests, errorResponse{err.Error()})
	case errors.Is(err, ErrDraining), errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, errorResponse{err.Error()})
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// intParam parses a required integer query parameter.
func intParam(r *http.Request, name string) (int, error) {
	s := r.URL.Query().Get(name)
	if s == "" {
		return 0, errors.New("missing required parameter " + name)
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, errors.New("bad " + name + " parameter: " + s)
	}
	return v, nil
}

// vertexList resolves the optional ?vertices=a,b,c or ?limit=N selection.
func vertexList(r *http.Request, n int) ([]int32, error) {
	q := r.URL.Query()
	if s := q.Get("vertices"); s != "" {
		parts := strings.Split(s, ",")
		out := make([]int32, 0, len(parts))
		for _, p := range parts {
			v, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil || v < 0 || v >= n {
				return nil, errors.New("bad vertices entry: " + p)
			}
			out = append(out, int32(v))
		}
		return out, nil
	}
	if s := q.Get("limit"); s != "" {
		lim, err := strconv.Atoi(s)
		if err != nil || lim < 0 {
			return nil, errors.New("bad limit parameter: " + s)
		}
		if lim > n {
			lim = n
		}
		out := make([]int32, lim)
		for i := range out {
			out[i] = int32(i)
		}
		return out, nil
	}
	return nil, nil
}
