package serve

import (
	"context"
	"errors"
	"iter"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// streamItem is the synthetic element streamNDJSON is driven with.
type streamItem struct {
	N int `json:"n"`
}

// streamSeq yields each step in order: an int becomes an element, an
// error a failed step.  *pulled counts the elements the consumer took.
func streamSeq(pulled *int, steps ...any) iter.Seq2[streamItem, error] {
	return func(yield func(streamItem, error) bool) {
		for _, st := range steps {
			if err, ok := st.(error); ok {
				yield(streamItem{}, err)
				return
			}
			*pulled++
			if !yield(streamItem{N: st.(int)}, nil) {
				return
			}
		}
	}
}

// streamRecord and streamDone render the synthetic stream's lines; the
// done record carries HTML characters so every encoder, the empty
// stream's included, is checked for SetEscapeHTML(false).
func streamRecord(i int, v streamItem) any {
	return struct {
		I int `json:"i"`
		N int `json:"n"`
	}{i, v.N}
}

func streamDone(n int) any {
	return struct {
		Done bool   `json:"done"`
		N    int    `json:"n"`
		Tag  string `json:"tag"`
	}{true, n, "<&>"}
}

// failingWriter is a client that is gone: every body write fails.
type failingWriter struct {
	header http.Header
	writes int
}

func (f *failingWriter) Header() http.Header { return f.header }
func (f *failingWriter) WriteHeader(int)     {}
func (f *failingWriter) Write([]byte) (int, error) {
	f.writes++
	return 0, errors.New("client gone")
}

// TestStreamNDJSON drives the shared NDJSON streamer with synthetic
// sequences, one way a stream can begin and end per row.  wantPulled
// counts the elements the streamer consumed; the failing-writer row
// checks that a failed chunk write stops the stream at once — no
// further element is pulled and nothing more is written.
func TestStreamNDJSON(t *testing.T) {
	boom := errors.New("boom <x>")
	for _, tc := range []struct {
		name       string
		steps      []any
		failWrites bool
		wantPulled int
		wantCode   int
		wantType   string
		wantBody   string
	}{
		{"empty", nil, false, 0, http.StatusOK, "application/x-ndjson",
			`{"done":true,"n":0,"tag":"<&>"}` + "\n"},
		{"entries then done", []any{7, 8}, false, 2, http.StatusOK, "application/x-ndjson",
			`{"i":0,"n":7}` + "\n" + `{"i":1,"n":8}` + "\n" + `{"done":true,"n":2,"tag":"<&>"}` + "\n"},
		{"error first", []any{boom}, false, 0, http.StatusBadRequest, "application/json",
			`{"error":"boom <x>"}` + "\n"},
		{"deadline first", []any{context.DeadlineExceeded}, false, 0, http.StatusGatewayTimeout, "application/json",
			`{"error":"test exceeded the server's 1s budget"}` + "\n"},
		{"entry then error", []any{7, boom}, false, 1, http.StatusOK, "application/x-ndjson",
			`{"i":0,"n":7}` + "\n" + `{"error":"boom <x>"}` + "\n"},
		{"write fails", []any{1, 2, 3}, true, 1, 0, "", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := &server{cfg: Config{Timeout: time.Second}.withDefaults()}
			req := httptest.NewRequest(http.MethodPost, "/", nil)
			var pulled int
			rec := httptest.NewRecorder()
			fw := &failingWriter{header: make(http.Header)}
			var w http.ResponseWriter = rec
			if tc.failWrites {
				w = fw
			}
			streamNDJSON(s, w, req, "test", streamSeq(&pulled, tc.steps...), streamRecord, streamDone)
			if pulled != tc.wantPulled {
				t.Errorf("pulled %d elements, want %d", pulled, tc.wantPulled)
			}
			if tc.failWrites {
				if fw.writes != 1 {
					t.Errorf("%d writes after the first one failed, want 1", fw.writes)
				}
				return
			}
			if rec.Code != tc.wantCode {
				t.Errorf("status %d, want %d", rec.Code, tc.wantCode)
			}
			if ct := rec.Header().Get("Content-Type"); ct != tc.wantType {
				t.Errorf("Content-Type %q, want %q", ct, tc.wantType)
			}
			if got := rec.Body.String(); got != tc.wantBody {
				t.Errorf("body:\n%s\nwant:\n%s", got, tc.wantBody)
			}
		})
	}
}
