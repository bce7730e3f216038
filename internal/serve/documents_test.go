package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"physdep/internal/cli"
	"physdep/internal/interchange"
	"physdep/internal/obs"
)

// smallTopoDoc builds the smallTopo fabric with the generator and emits
// it as an interchange document.
func smallTopoDoc(t *testing.T) []byte {
	t.Helper()
	var p cli.TopoParams
	if err := json.Unmarshal([]byte(smallTopo), &p); err != nil {
		t.Fatal(err)
	}
	topo, err := cli.BuildTopology(p)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := interchange.FromTopology(topo).Encode()
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// uploadSmallTopoDoc uploads smallTopoDoc and returns the digest
// reference plus the raw upload response.
func uploadSmallTopoDoc(t *testing.T, h http.Handler) (string, DocumentResponse) {
	t.Helper()
	rr := do(h, nil, "POST", "/v1/documents", string(smallTopoDoc(t)))
	if rr.Code != http.StatusOK {
		t.Fatalf("upload = %d: %s", rr.Code, rr.Body)
	}
	var resp DocumentResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(resp.Document, docRefPrefix) {
		t.Fatalf("upload returned ref %q, want a %q digest", resp.Document, docRefPrefix)
	}
	return resp.Document, resp
}

// TestUploadedDocumentParity is the acceptance criterion for the daemon
// wiring: a fabric served from an uploaded interchange document answers
// with response bytes equal to the equivalent generator-spec request, on
// both /v1/stats and /v1/evaluate — the document is just another way to
// name the same fabric, not a different evaluation path.
func TestUploadedDocumentParity(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	ref, up := uploadSmallTopoDoc(t, h)
	if up.Switches == 0 || up.Links == 0 {
		t.Fatalf("upload echo is empty: %+v", up)
	}

	fileTopo := `{"name":"file","file":"` + ref + `"}`
	for _, c := range []struct {
		path, specBody, fileBody string
	}{
		{"/v1/stats", `{"topo":` + smallTopo + `}`, `{"topo":` + fileTopo + `}`},
		{"/v1/evaluate", `{"topo":` + smallTopo + `,"anneal":50}`, `{"topo":` + fileTopo + `,"anneal":50}`},
	} {
		specRR := do(h, nil, "POST", c.path, c.specBody)
		fileRR := do(h, nil, "POST", c.path, c.fileBody)
		if specRR.Code != http.StatusOK || fileRR.Code != http.StatusOK {
			t.Fatalf("%s: spec = %d, file = %d: %s %s", c.path, specRR.Code, fileRR.Code, specRR.Body, fileRR.Body)
		}
		if specRR.Body.String() != fileRR.Body.String() {
			t.Fatalf("%s: uploaded-document response diverges from spec-built:\n%s\nvs\n%s",
				c.path, fileRR.Body, specRR.Body)
		}
	}
}

// TestUploadedDocumentCachesAndReloads: file specs ride the same result
// cache, topology store, and invalidation path as generated specs.
func TestUploadedDocumentCachesAndReloads(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	ref, _ := uploadSmallTopoDoc(t, h)
	body := `{"topo":{"name":"file","file":"` + ref + `"}}`

	first := do(h, nil, "POST", "/v1/stats", body)
	if first.Code != http.StatusOK || first.Header().Get("X-Physdepd-Cache") != "miss" {
		t.Fatalf("first = %d (%q)", first.Code, first.Header().Get("X-Physdepd-Cache"))
	}
	before := obs.TakeSnapshot()
	second := do(h, nil, "POST", "/v1/stats", body)
	after := obs.TakeSnapshot()
	if second.Header().Get("X-Physdepd-Cache") != "hit" || second.Body.String() != first.Body.String() {
		t.Fatalf("replay = %q, want byte-identical hit", second.Header().Get("X-Physdepd-Cache"))
	}
	if d := counterDelta(before, after, "serve.store.build"); d != 0 {
		t.Fatalf("cache hit rebuilt the document fabric (serve.store.build delta %d)", d)
	}

	rr := do(h, nil, "POST", "/v1/reload", body)
	if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), "true") {
		t.Fatalf("reload of a file spec = %d: %s", rr.Code, rr.Body)
	}
}

// TestDocumentRejections covers the upload and reference failure modes:
// invalid documents are refused at upload, and specs referencing paths,
// malformed digests, or digests that were never uploaded are 422s.
func TestDocumentRejections(t *testing.T) {
	s := New(Config{})
	h := s.Handler()

	if rr := do(h, nil, "POST", "/v1/documents", `{"format":"physdep-topology","version":99}`); rr.Code != http.StatusUnprocessableEntity {
		t.Fatalf("future-version document upload = %d, want 422: %s", rr.Code, rr.Body)
	}
	if rr := do(h, nil, "POST", "/v1/documents", "not json"); rr.Code != http.StatusUnprocessableEntity {
		t.Fatalf("garbage upload = %d, want 422", rr.Code)
	}
	for name, ref := range map[string]string{
		"filesystem path":  "/etc/fabric.json",
		"malformed digest": "sha256:zz",
		"absent digest":    "sha256:" + strings.Repeat("ab", 32),
	} {
		body := `{"topo":{"name":"file","file":"` + ref + `"}}`
		if rr := do(h, nil, "POST", "/v1/stats", body); rr.Code != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status = %d, want 422: %s", name, rr.Code, rr.Body)
		}
	}
}

// TestDocumentUploadHonoursRequestContext: the upload loads under the
// request's context bounded by RequestTimeout, so a client gone before
// the load (499) or a request past its deadline (504) stores nothing in
// the document cache.
func TestDocumentUploadHonoursRequestContext(t *testing.T) {
	doc := string(smallTopoDoc(t))
	for _, c := range []struct {
		name string
		cfg  Config
		ctx  context.Context
		want int
	}{
		{"canceled request", Config{}, canceledCtx(), StatusClientClosedRequest},
		{"expired request", Config{}, expiredCtx(t), http.StatusGatewayTimeout},
		{"expired RequestTimeout", Config{RequestTimeout: time.Nanosecond}, nil, http.StatusGatewayTimeout},
	} {
		s := New(c.cfg)
		if rr := do(s.Handler(), c.ctx, "POST", "/v1/documents", doc); rr.Code != c.want {
			t.Fatalf("%s: upload = %d, want %d: %s", c.name, rr.Code, c.want, rr.Body)
		}
		if n := s.docs.len(); n != 0 {
			t.Fatalf("%s: document cache holds %d entries, want 0", c.name, n)
		}
	}
}

// TestDocumentUploadIsIdempotent: re-uploading the same bytes returns
// the same digest and does not disturb cached results keyed on it.
func TestDocumentUploadIsIdempotent(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	ref1, _ := uploadSmallTopoDoc(t, h)
	body := `{"topo":{"name":"file","file":"` + ref1 + `"}}`
	first := do(h, nil, "POST", "/v1/stats", body)
	ref2, _ := uploadSmallTopoDoc(t, h)
	if ref1 != ref2 {
		t.Fatalf("same bytes, different digests: %s vs %s", ref1, ref2)
	}
	replay := do(h, nil, "POST", "/v1/stats", body)
	if replay.Header().Get("X-Physdepd-Cache") != "hit" || replay.Body.String() != first.Body.String() {
		t.Fatal("re-upload disturbed the cached result")
	}
}
