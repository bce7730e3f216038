package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"

	"physdep/internal/cli"
	"physdep/internal/interchange"
	"physdep/internal/obs"
	"physdep/internal/physerr"
	"physdep/internal/topology"
)

// The daemon serves interchange documents (internal/interchange) the
// same way it serves generated families: a client POSTs the document to
// /v1/documents once, gets back its content digest, and then names it in
// any topo spec as {"name": "file", "file": "sha256:<hex>"}. From there
// the existing machinery applies unchanged — the spec (and with it every
// result-cache and coalescing key) is a function of the document bytes,
// the topoStore builds and freezes the fabric single-flight, and
// /v1/reload invalidates it like any other spec.
//
// Content addressing is the point: a path-valued spec would make cached
// results outlive the file they were computed from (edit the file, keep
// getting yesterday's fabric), and would have the daemon reading
// server-local paths on behalf of remote clients. A digest can do
// neither — re-uploading changed bytes yields a new digest, a new spec,
// and a cold cache entry, while the old digest keeps serving the old
// document for as long as it stays resident.

// maxDocumentBytes bounds an uploaded document. Documents are a few
// dozen bytes per switch and link, so this covers fleet-scale fabrics
// while keeping a hostile upload from ballooning the daemon.
const maxDocumentBytes = 32 << 20

// docRefPrefix is the scheme marking a daemon file spec as a content
// digest rather than a filesystem path.
const docRefPrefix = "sha256:"

// DocumentResponse answers an upload: the digest to reference the
// document by, plus the loaded fabric's shape as a sanity echo.
type DocumentResponse struct {
	Document string `json:"document"` // "sha256:<hex>" — use as {"name":"file","file":<this>}
	Name     string `json:"name"`
	Switches int    `json:"switches"`
	Links    int    `json:"links"`
}

// handleDocument accepts one interchange document, fully validates it
// (a document that cannot load is refused at the door, not at first
// use), and pins its bytes in the bounded document cache under their
// SHA-256. Uploading is idempotent: the same bytes always map to the
// same digest. The load runs under the request's context, bounded by the
// server's RequestTimeout like every evaluation route, so a client that
// hangs up stops a fleet-scale load and stores nothing.
func (s *Server) handleDocument(w http.ResponseWriter, r *http.Request) {
	obs.Inc("serve.requests.document")
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxDocumentBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				physerr.OutOfRange("serve: document exceeds the %d byte upload cap", maxDocumentBytes))
			return
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ctx := r.Context()
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	t, _, err := interchange.LoadCtx(ctx, data)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	key := cacheKey(sha256.Sum256(data))
	obs.Inc("serve.docs.stored")
	if s.docs.add(key, data) {
		obs.Inc("serve.docs.evict")
	}
	resp := DocumentResponse{
		Document: docRefPrefix + hex.EncodeToString(key[:]),
		Name:     t.Name,
		Switches: t.NumSwitches(),
		Links:    t.NumEdges(),
	}
	body, err := json.Marshal(resp)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSONBody(w, append(body, '\n'), "none")
}

// buildTopo is the daemon's topoStore builder: generated families go to
// cli.BuildTopology; "file" specs resolve their digest against the
// resident document cache. A digest that is not resident — never
// uploaded, or evicted — is a 422 telling the client to (re)upload,
// which is the content-addressed analogue of a stale file path.
//
// buildTopo takes no context on purpose: it runs inside the topoStore's
// shared single-flight build, whose result every waiting request reuses,
// so one request's cancel must not abort it.
func (s *Server) buildTopo(p cli.TopoParams) (*topology.Topology, error) {
	if p.Name != "file" {
		return cli.BuildTopology(p)
	}
	key, err := parseDocRef(p.File)
	if err != nil {
		return nil, err
	}
	data, ok := s.docs.get(key)
	if !ok {
		return nil, physerr.OutOfRange(
			"serve: document %s is not resident; upload it via POST /v1/documents", p.File)
	}
	t, _, err := interchange.Load(data)
	return t, err
}

// parseDocRef parses "sha256:<64 hex>" into a document cache key. The
// daemon rejects anything else — in particular filesystem paths, which
// are only meaningful to the CLIs.
func parseDocRef(ref string) (cacheKey, error) {
	var k cacheKey
	if !strings.HasPrefix(ref, docRefPrefix) {
		return k, physerr.OutOfRange(
			"serve: daemon file specs reference uploaded documents as %q, got %q (POST the document to /v1/documents first)",
			docRefPrefix+"<hex>", ref)
	}
	b, err := hex.DecodeString(strings.TrimPrefix(ref, docRefPrefix))
	if err != nil || len(b) != len(k) {
		return k, physerr.OutOfRange("serve: malformed document digest %q", ref)
	}
	copy(k[:], b)
	return k, nil
}
