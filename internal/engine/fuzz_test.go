package engine

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"acic/internal/dynamic"
	"acic/internal/gen"
	"acic/internal/graph"
	"acic/internal/seq"
)

// FuzzHandlerQueries sends an arbitrary body to POST /mutate and arbitrary
// query strings to GET /sssp and GET /path, through Handler(), on a fresh
// 16-vertex dynamic engine. No request may panic; every status must be one
// the handler documents for a request that is neither shed nor draining;
// and a 200 /path reply must carry seq.Dijkstra's distance on the graph of
// the reply's epoch, along a path of that graph's edges. /path runs before
// and after the mutation, so both epochs are checked.
func FuzzHandlerQueries(f *testing.F) {
	f.Add(`{"mutations":[{"op":"insert","from":0,"to":5,"weight":1}]}`, "source=0&vertices=0,5,15", "source=0&target=5")
	f.Add(`{"mutations":[{"op":"delete","from":0,"to":1},{"op":"set_weight","from":2,"to":3,"weight":0}]}`, "source=3&limit=99", "source=15&target=0")
	f.Add(`{"mutations":[{"op":"insert","from":0,"to":99,"weight":1}]}`, "source=16", "source=0&target=16")
	f.Add(`{"mutations":[{"op":"insert","from":1,"to":2,"weight":-1}]}`, "source=-1&metrics=1", "source=x&target=1")
	f.Add(`{"mutations":[]}`, "vertices=1", "source=4&target=4")
	f.Add(`{"mutations":[{"op":"teleport","from":1,"to":2}]}`, "source=2&vertices=a,b", "target=3")
	f.Add(`not json`, "source=1&limit=-3", "source=7&target=9&target=2")
	f.Add(`{"mutations":[{"op":"set_weight","from":4,"to":4,"weight":1e308},{"op":"insert","from":4,"to":4,"weight":1e308}]}`, "source=4&metrics=1", "source=4&target=12")
	g := gen.Uniform(16, 64, gen.Config{Seed: 1})
	f.Fuzz(func(t *testing.T, body, ssspQuery, pathQuery string) {
		e, err := NewDynamic(dynamic.FromCSR(g), Config{MaxInFlight: 1})
		if err != nil {
			t.Fatal(err)
		}
		h := e.Handler()
		graphs := map[uint64]*graph.Graph{e.Epoch(): e.Graph()}
		serve := func(method, path, query, body string, allowed ...int) *httptest.ResponseRecorder {
			req := httptest.NewRequest(method, path, bytes.NewReader([]byte(body)))
			req.URL.RawQuery = query
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			for _, code := range allowed {
				if rec.Code == code {
					return rec
				}
			}
			t.Fatalf("%s %s?%q: status %d, want one of %v (%s)", method, path, query, rec.Code, allowed, rec.Body)
			return nil
		}
		checkPathReply := func() {
			rec := serve(http.MethodGet, "/path", pathQuery, "", http.StatusOK, http.StatusBadRequest)
			if rec.Code != http.StatusOK {
				return
			}
			var resp PathResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("/path?%q: undecodable 200 reply %q: %v", pathQuery, rec.Body, err)
			}
			gv := graphs[resp.Epoch]
			if gv == nil {
				t.Fatalf("/path?%q: reply epoch %d was never published", pathQuery, resp.Epoch)
			}
			want := seq.Dijkstra(gv, resp.Source).Dist[resp.Target]
			if math.IsInf(want, 1) {
				if resp.Reachable || resp.Distance != nil {
					t.Fatalf("/path?%q: reachable at %v, Dijkstra says unreachable", pathQuery, resp.Distance)
				}
				return
			}
			if !resp.Reachable || resp.Distance == nil {
				t.Fatalf("/path?%q: unreachable, Dijkstra distance %g", pathQuery, want)
			}
			if math.Abs(*resp.Distance-want) > 1e-9*math.Max(1, want) {
				t.Fatalf("/path?%q: distance %g, Dijkstra %g", pathQuery, *resp.Distance, want)
			}
			checkPath(t, gv, &PathResult{Source: resp.Source, Target: resp.Target, Distance: *resp.Distance, Path: resp.Path})
		}

		checkPathReply()
		if rec := serve(http.MethodPost, "/mutate", "", body, http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge); rec.Code == http.StatusOK {
			graphs[e.Epoch()] = e.Graph()
		}
		serve(http.MethodGet, "/sssp", ssspQuery, "", http.StatusOK, http.StatusBadRequest)
		checkPathReply()
	})
}
