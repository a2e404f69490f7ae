package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	smtbalance "repro"
)

// FuzzServeRun throws arbitrary bodies at the POST /v1/run handler: the
// handler must never panic, must answer with a sane status, and a 200
// must carry a well-formed RunResponse.  Tight limits keep accepted
// fuzz inputs cheap to simulate.
func FuzzServeRun(f *testing.F) {
	m, err := smtbalance.NewMachine(nil)
	if err != nil {
		f.Fatal(err)
	}
	handler := NewHandler(m, Config{
		MaxBodyBytes: 1 << 16,
		MaxRanks:     4,
		MaxPhases:    8,
		MaxComputeN:  20_000,
		Timeout:      5 * time.Second,
	})

	for _, seed := range []string{
		``,
		`{}`,
		`{{{`,
		`null`,
		`[1,2,3]`,
		`{"job": {"ranks": [[{"compute": {"kind": "fpu", "n": 2000}}, {"barrier": true}]]}}`,
		`{"job": {"ranks": [
		  [{"compute": {"kind": "fpu", "n": 1000}}, {"barrier": true}],
		  [{"compute": {"kind": "l1", "n": 4000}}, {"barrier": true}],
		  [{"compute": {"kind": "fpu", "n": 1000}}, {"barrier": true}],
		  [{"compute": {"kind": "mem", "n": 4000}}, {"barrier": true}]
		]}, "placement": {"cpus": [0, 1, 2, 3], "priorities": [4, 6, 4, 6]}}`,
		`{"job": {"ranks": [[{"exchange": {"bytes": 64, "peers": [1]}}], [{"exchange": {"bytes": 64, "peers": [0]}}]]}}`,
		`{"job": {"ranks": [[{"barrier": true}]]}, "pin": "0.0.0@4"}`,
		`{"job": {"ranks": [[{"barier": true}]]}}`,
		`{"job": {"ranks": [[{"compute": {"kind": "gpu", "n": 10}}]]}}`,
		`{"job": {"ranks": [[{"compute": {"kind": "fpu", "n": -5}}]]}}`,
		`{"job": {"ranks": [[{"compute": {"kind": "fpu", "n": 9999999999999}}]]}}`,
		`{"job": {"ranks": [[{"compute": {"kind": "fpu", "n": 100, "footprint": -1}}]]}}`,
		`{"job": {"name": "x", "ranks": [[{"barrier": true, "compute": {"kind": "fpu", "n": 1}}]]}}`,
		`{"job": {"ranks": [[{"exchange": {"bytes": -1, "peers": [0]}}]]}}`,
		`{"job": {"ranks": [[{"barrier": true}]]}, "placement": {"cpus": [7], "priorities": [4]}}`,
		`{"job": {"ranks": [[{"barrier": true}]]}, "pin": "9.9.9@9"}`,
		`{"job": {"ranks": [[{"barrier": true}]]}} trailing`,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(string(body)))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req) // must not panic

		switch rec.Code {
		case http.StatusOK:
			var out RunResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatalf("200 with undecodable body: %v\n%s", err, rec.Body.Bytes())
			}
			// A trivial job (barriers only) can finish in 0 cycles.
			if out.Cycles < 0 || len(out.Ranks) == 0 {
				t.Fatalf("200 with empty result: %+v", out)
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusGatewayTimeout:
			var e errorJSON
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("%d without an error body: %s", rec.Code, rec.Body.Bytes())
			}
		default:
			t.Fatalf("unexpected status %d: %s", rec.Code, rec.Body.Bytes())
		}
	})
}

// FuzzServeSweep throws arbitrary bodies at POST /v1/sweep.  Tight
// limits (two ranks, short phases) keep an accepted sweep's space and
// every point in it cheap to simulate.
func FuzzServeSweep(f *testing.F) {
	m, err := smtbalance.NewMachine(nil)
	if err != nil {
		f.Fatal(err)
	}
	handler := NewHandler(m, Config{
		MaxBodyBytes: 1 << 16,
		MaxRanks:     2,
		MaxPhases:    4,
		MaxComputeN:  5_000,
		Timeout:      5 * time.Second,
		SweepWorkers: 1,
	})
	const job = `{"ranks": [[{"compute": {"kind": "fpu", "n": 1000}}, {"barrier": true}], [{"compute": {"kind": "fpu", "n": 4000}}, {"barrier": true}]]}`
	for _, seed := range []string{
		``,
		`{}`,
		`{{{`,
		`null`,
		`{"job": ` + job + `}`,
		`{"job": ` + job + `, "space": {"fix_pairing": true, "priorities": [4, 6]}, "top": 2}`,
		`{"job": ` + job + `, "space": {"alphabet": "os", "policies": ["static", "dyn"]}, "screen": 3}`,
		`{"job": ` + job + `, "objective": {"imbalance_weight": 1}}`,
		`{"job": ` + job + `} trailing`,
		`{"job": ` + job + `, "bogus": 1}`,
		`{"job": ` + job + `, "space": {"alphabet": "greek"}}`,
		`{"job": ` + job + `, "top": -1}`,
		`{"job": ` + job + `, "screen": -2}`,
		`{"job": ` + job + `, "space": {"policies": ["dyn2"]}}`,
		`{"job": {"ranks": [[{"barrier": true}], [{"barrier": true}], [{"barrier": true}]]}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkStreamReply(t, serveBody(handler, "/v1/sweep", body))
	})
}

// FuzzServeMatrix throws arbitrary bodies at POST /v1/matrix.  Tight
// limits (two cells, four ranks, short phases) keep an accepted
// matrix cheap to evaluate.
func FuzzServeMatrix(f *testing.F) {
	m, err := smtbalance.NewMachine(nil)
	if err != nil {
		f.Fatal(err)
	}
	handler := NewHandler(m, Config{
		MaxBodyBytes:   1 << 16,
		MaxRanks:       4,
		MaxPhases:      8,
		MaxComputeN:    20_000,
		Timeout:        5 * time.Second,
		SweepWorkers:   1,
		MaxMatrixCells: 2,
	})
	for _, seed := range []string{
		``,
		`{}`,
		`{{{`,
		`null`,
		`{"scenarios": ["uniform,base=3000,iters=2"], "policies": ["dyn"]}`,
		`{"scenarios": ["uniform,base=3000,iters=2", "step,base=3000,iters=2"], "policies": ["static", "hier"], "topologies": ["1x2x2"]}`,
		`{"scenarios": ["uniform,base=3000,iters=2"], "policies": ["dyn"]} trailing`,
		`{"scenarios": ["uniform,base=3000,iters=2"], "policies": ["dyn"], "screen": 2}`,
		`{"scenarios": ["uniform,base=3000,iters=2"], "policies": ["dyn"], "bogus": 1}`,
		`{"scenarios": ["warp"], "policies": ["static"]}`,
		`{"scenarios": ["uniform,base=3000,iters=2"], "policies": ["dyn2"]}`,
		`{"scenarios": ["uniform,base=3000,iters=2"], "policies": ["static"], "topologies": ["0x2x2"]}`,
		`{"scenarios": ["uniform,base=3000,iters=2"], "policies": ["static"], "topologies": ["4x16x2"]}`,
		`{"scenarios": ["uniform,base=3000,iters=2", "ramp,base=3000,iters=2", "step,base=3000,iters=2"], "policies": ["static"]}`,
		`{"scenarios": [], "policies": ["static"]}`,
		`{"scenarios": ["uniform,base=9000000,iters=2"], "policies": ["static"]}`,
		`{"scenarios": ["uniform"], "policies": ["static"]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkStreamReply(t, serveBody(handler, "/v1/matrix", body))
	})
}

// serveBody POSTs body to path on handler and returns the recorded reply.
func serveBody(handler http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(string(body)))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, req) // must not panic
	return rec
}

// checkStreamReply holds a streaming endpoint's reply to its contract: a
// 200 is NDJSON whose every line decodes and whose last line is the
// terminal done or error record; a 4xx or 504 carries a JSON error.
func checkStreamReply(t *testing.T, rec *httptest.ResponseRecorder) {
	t.Helper()
	switch rec.Code {
	case http.StatusOK:
		lines := strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n")
		var last map[string]any
		for i, ln := range lines {
			last = nil
			if err := json.Unmarshal([]byte(ln), &last); err != nil {
				t.Fatalf("200 stream line %d does not decode: %v\n%s", i, err, rec.Body.Bytes())
			}
		}
		if last["done"] != true && last["error"] == nil {
			t.Fatalf("200 stream ends without a done or error record:\n%s", rec.Body.Bytes())
		}
	case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusGatewayTimeout:
		var e errorJSON
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Fatalf("%d without an error body: %s", rec.Code, rec.Body.Bytes())
		}
	default:
		t.Fatalf("unexpected status %d: %s", rec.Code, rec.Body.Bytes())
	}
}
