package transport

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// evalBody POSTs body to the site server's /eval handler in-process and
// returns the recorded response.
func evalBody(ss *SiteServer, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	ss.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/eval", bytes.NewReader(body)))
	return rec
}

// validEvalBody is a well-formed /eval request for the test cluster's
// ?x <p> ?y query over both fragments, as a control site would send it.
func validEvalBody(t testing.TB, triples, batch int) (*SiteServer, []byte) {
	t.Helper()
	c, d, q := newTestCluster(t, triples)
	wire, err := encodeRequest(testRequest(q), d, batch)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	return NewSiteServer(ServerConfig{Cluster: c, Dict: d}), body
}

// withField returns body with one top-level JSON field set. Numbers
// round-trip as json.Number, so 64-bit fingerprints keep every digit.
func withField(t *testing.T, body []byte, key string, val any) []byte {
	t.Helper()
	var m map[string]any
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	m[key] = val
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEvalRejectsOversizedBatch: the batch size is allocated up front,
// so a value past maxEvalBatch is refused with 400 before any work,
// while the limit itself is still served.
func TestEvalRejectsOversizedBatch(t *testing.T) {
	ss, body := validEvalBody(t, 4, 0)
	if rec := evalBody(ss, withField(t, body, "batch", maxEvalBatch+1)); rec.Code != http.StatusBadRequest {
		t.Fatalf("batch %d: status %d, want 400", maxEvalBatch+1, rec.Code)
	}
	if ss.Metrics().Evals != 0 {
		t.Fatal("an oversized batch request was counted as an accepted eval")
	}
	if rec := evalBody(ss, withField(t, body, "batch", maxEvalBatch)); rec.Code != http.StatusOK {
		t.Fatalf("batch %d: status %d, want 200", maxEvalBatch, rec.Code)
	}
}

// TestEvalIgnoresRetiredParallelismField: requests from clients that
// still send the retired "parallelism" field decode and stream exactly
// the rows they would without it.
func TestEvalIgnoresRetiredParallelismField(t *testing.T) {
	ss, body := validEvalBody(t, 12, 4)
	want := evalBody(ss, body)
	got := evalBody(ss, withField(t, body, "parallelism", 8))
	if want.Code != http.StatusOK || got.Code != http.StatusOK {
		t.Fatalf("status %d with the retired field, %d without; want 200", got.Code, want.Code)
	}
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Errorf("retired field changed the stream:\n got %s\nwant %s", got.Body, want.Body)
	}
}

// FuzzSiteEval feeds arbitrary bytes to the /eval handler of a site
// server over a tiny deployment (one triple per fragment, so no query
// can blow up combinatorially). Whatever the body, the handler must not
// panic and must answer 200, 400, 404 or 409. The committed seed corpus
// covers a valid request, one carrying the retired "parallelism" field,
// a huge batch, a negative resume, out-of-range vertex indexes and
// malformed JSON.
func FuzzSiteEval(f *testing.F) {
	ss, body := validEvalBody(f, 2, 0)
	f.Add(body)
	f.Fuzz(func(t *testing.T, body []byte) {
		switch rec := evalBody(ss, body); rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusConflict:
		default:
			t.Fatalf("status %d for body %q", rec.Code, body)
		}
	})
}
