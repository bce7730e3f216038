package serve

import (
	"bufio"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"physdep/internal/atomicfile"
	"physdep/internal/obs"
)

// The result cache persists as a line-oriented JSON snapshot: a header
// naming the format and version, then one checksummed entry per cached
// response, least recently used first (so replaying the file through
// add() reproduces the LRU recency order, not just the contents). The
// file is written whole, temp+rename, on graceful shutdown — there is
// no torn-tail case by construction — and loaded entry by entry at
// startup, skipping (and counting) anything whose checksum does not
// match, so a bit-rotted entry costs one cold miss instead of the whole
// warm start.
//
// The checksum covers key and body together: the key is a hash of a
// request the daemon cannot reconstruct from the body, so a corrupted
// key would otherwise silently serve the right bytes to the wrong
// request forever.
const (
	persistFormat  = "physdepd-cache"
	persistVersion = 1
)

type persistHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	Entries int    `json:"entries"`
}

type persistEntry struct {
	Key  string `json:"key"`  // hex cacheKey
	Sum  string `json:"sum"`  // hex SHA-256(key || body)
	Body string `json:"body"` // base64 response bytes
}

func entrySum(k cacheKey, body []byte) string {
	h := sha256.New()
	h.Write(k[:])
	h.Write(body)
	return hex.EncodeToString(h.Sum(nil))
}

// SaveCache snapshots the result cache to path, replacing it atomically
// (atomicfile.Write, mode 0600: the snapshot holds every cached response),
// and returns the number of entries written. Concurrent requests keep
// being served during the snapshot; entries added after the snapshot is
// taken are simply not in this save.
func (s *Server) SaveCache(path string) (int, error) {
	keys, bodies := s.cache.lru.snapshotOldestFirst()
	err := atomicfile.Write(path, 0o600, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		if err := enc.Encode(persistHeader{Format: persistFormat, Version: persistVersion, Entries: len(keys)}); err != nil {
			return err
		}
		for i, k := range keys {
			e := persistEntry{
				Key:  hex.EncodeToString(k[:]),
				Sum:  entrySum(k, bodies[i]),
				Body: base64.StdEncoding.EncodeToString(bodies[i]),
			}
			if err := enc.Encode(e); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	obs.Add("serve.persist.saved", int64(len(keys)))
	return len(keys), nil
}

// LoadCache warm-starts the result cache from a file SaveCache wrote,
// returning how many entries it restored. A missing file is a cold
// start, not an error. Entries that fail their checksum (or do not
// decode) are skipped and counted under serve.persist.corrupt; entries
// that do load are served later as byte-identical cache hits with zero
// kernel work, exactly as if the daemon had never restarted.
func (s *Server) LoadCache(path string) (int, error) {
	fh, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	defer fh.Close()
	dec := json.NewDecoder(bufio.NewReader(fh))
	var hdr persistHeader
	if err := dec.Decode(&hdr); err != nil {
		return 0, fmt.Errorf("cache persist %s: bad header: %w", path, err)
	}
	if hdr.Format != persistFormat || hdr.Version != persistVersion {
		return 0, fmt.Errorf("cache persist %s: format %q version %d, want %q version %d",
			path, hdr.Format, hdr.Version, persistFormat, persistVersion)
	}
	if hdr.Entries < 0 {
		return 0, fmt.Errorf("cache persist %s: header declares %d entries", path, hdr.Entries)
	}
	// processed counts entries the file actually carried in decodable
	// form, valid or not; comparing it against the header's declared count
	// afterwards is what catches a snapshot truncated on a clean line
	// boundary — every surviving line decodes fine, so without the header
	// check the warm start would just be silently short.
	loaded, processed := 0, 0
	for {
		var e persistEntry
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			// Undecodable from here on: keep what already validated.
			obs.Inc("serve.persist.corrupt")
			break
		}
		processed++
		kb, err := hex.DecodeString(e.Key)
		if err != nil || len(kb) != len(cacheKey{}) {
			obs.Inc("serve.persist.corrupt")
			continue
		}
		var k cacheKey
		copy(k[:], kb)
		body, err := base64.StdEncoding.DecodeString(e.Body)
		if err != nil || entrySum(k, body) != e.Sum {
			obs.Inc("serve.persist.corrupt")
			continue
		}
		s.cache.lru.add(k, body)
		loaded++
	}
	// The shortfall: entries the header promised but the file no longer
	// has (truncation) — each one is a working-set response that will now
	// be a cold miss, counted under the same corruption counter as a
	// bit-rotted entry because the operational meaning is identical.
	// Extra entries beyond the declared count are also suspect (the
	// header and body disagree about what this file is) but cost nothing,
	// so they are loaded and not counted.
	if short := hdr.Entries - processed; short > 0 {
		obs.Add("serve.persist.corrupt", int64(short))
	}
	obs.Add("serve.persist.loaded", int64(loaded))
	return loaded, nil
}
