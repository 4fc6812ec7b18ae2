package sweep

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Cache is the content-addressed on-disk result store. Layout:
//
//	<dir>/objects/<hh>/<hash>.json   one finished Result per job key hash
//	<dir>/manifest.jsonl             append-only journal of job completions
//
// An object is written to a temporary file and renamed into place, then a
// manifest line is appended and synced, so a crash leaves at worst one
// unjournaled (but valid) object and never a journaled, half-written one.
// A "done" record carries the SHA-256 of its object's bytes, so an object
// changed after it was journaled is a miss, never a wrong hit. On open,
// the manifest is replayed: "done" entries become cache hits, a truncated
// final line (the signature of a crash mid-append) is ignored, and
// "failed" entries are remembered only for reporting — failures always
// re-execute.
//
// The directory is the only state several processes share: each may open
// it, serve hits from it and journal into it. Every record names its key
// and the key's hash, so a record from any writer is checked against the
// content address it claims.
type Cache struct {
	dir string

	mu       sync.Mutex
	manifest *os.File
	done     map[string]manifestLine // key hash -> latest "done" record
	failed   map[string]Failure      // key hash -> last journaled failure
}

// manifestLine is one journal record.
type manifestLine struct {
	Hash   string `json:"h"`
	Key    string `json:"k"`
	Status string `json:"s"` // "done" or "failed"
	Err    string `json:"e,omitempty"`
	// Digest is the SHA-256 of a "done" record's object bytes. A record
	// without one (written before objects were digested) is never served.
	Digest string `json:"d,omitempty"`
}

// valid reports whether a decoded record is one the cache writes: a known
// status, and a hash that is the hash of its key.
func (m manifestLine) valid() bool {
	return (m.Status == "done" || m.Status == "failed") && m.Hash == HashKey(m.Key)
}

// OpenCache opens (creating if needed) a cache directory and replays its
// manifest journal.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o777); err != nil {
		return nil, fmt.Errorf("sweep: create cache: %w", err)
	}
	c := &Cache{
		dir:    dir,
		done:   make(map[string]manifestLine),
		failed: make(map[string]Failure),
	}
	if err := c.replay(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(c.manifestPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		return nil, fmt.Errorf("sweep: open manifest: %w", err)
	}
	c.manifest = f
	return c, nil
}

func (c *Cache) manifestPath() string { return filepath.Join(c.dir, "manifest.jsonl") }

func (c *Cache) objectPath(hash string) string {
	return filepath.Join(c.dir, "objects", hash[:2], hash+".json")
}

// replay loads the journal. Malformed lines — unparseable, or records
// that fail manifestLine.valid — are tolerated only in the final position
// (a crash mid-append); anywhere else they mean corruption and the open
// fails with the line number rather than silently dropping completed work
// or serving a record under a hash it does not own.
func (c *Cache) replay() error {
	f, err := os.Open(c.manifestPath())
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("sweep: open manifest: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	var badLine int
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var m manifestLine
		if err := json.Unmarshal([]byte(text), &m); err != nil || !m.valid() {
			if badLine != 0 {
				return fmt.Errorf("sweep: manifest %s: malformed line %d", c.manifestPath(), badLine)
			}
			badLine = line
			continue
		}
		if badLine != 0 {
			return fmt.Errorf("sweep: manifest %s: malformed line %d precedes valid records", c.manifestPath(), badLine)
		}
		switch m.Status {
		case "done":
			c.done[m.Hash] = m
			delete(c.failed, m.Hash)
		case "failed":
			c.failed[m.Hash] = Failure{Key: m.Key, Err: m.Err}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("sweep: manifest %s: %w", c.manifestPath(), err)
	}
	return nil
}

// Get returns the cached result for a canonical key, if the journal marks
// it done and its object is present and holds the bytes the journal
// digested. A missing or mismatched object (a collision, a crash before
// the object rename, or an object changed after it was journaled) and a
// record without a digest degrade to a miss, so the job re-executes and
// is journaled again.
func (c *Cache) Get(key string) (Result, bool) {
	hash := HashKey(key)
	c.mu.Lock()
	rec, ok := c.done[hash]
	c.mu.Unlock()
	if !ok || rec.Key != key {
		return Result{}, false
	}
	data, err := os.ReadFile(c.objectPath(hash))
	if err != nil || digest(data) != rec.Digest {
		return Result{}, false
	}
	var obj object
	if err := json.Unmarshal(data, &obj); err != nil || obj.Key != key {
		return Result{}, false
	}
	return obj.Result, true
}

// object is the on-disk form of one finished job.
type object struct {
	Key    string
	Result Result
}

// digest is the hex SHA-256 of an object's bytes.
func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Put stores a finished result and journals the completion.
func (c *Cache) Put(key string, res Result) error {
	hash := HashKey(key)
	path := c.objectPath(hash)
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return fmt.Errorf("sweep: cache put: %w", err)
	}
	data, err := json.MarshalIndent(object{key, res}, "", " ")
	if err != nil {
		return fmt.Errorf("sweep: cache put: %w", err)
	}
	data = append(data, '\n')
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+hash+".tmp*")
	if err != nil {
		return fmt.Errorf("sweep: cache put: %w", err)
	}
	_, werr := tmp.Write(data)
	serr := tmp.Sync()
	cerr := tmp.Close()
	if err := errors.Join(werr, serr, cerr); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: cache put: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: cache put: %w", err)
	}
	rec := manifestLine{Hash: hash, Key: key, Status: "done", Digest: digest(data)}
	if err := c.journal(rec); err != nil {
		return err
	}
	c.mu.Lock()
	c.done[hash] = rec
	delete(c.failed, hash)
	c.mu.Unlock()
	return nil
}

// PutFailure journals a job failure. Failures are never served from the
// cache — they re-execute on resume — but the journal records them so a
// sweep's post-mortem (swex -status) can list what went wrong.
func (c *Cache) PutFailure(key string, jobErr error) error {
	hash := HashKey(key)
	msg := ""
	if jobErr != nil {
		msg = jobErr.Error()
	}
	if err := c.journal(manifestLine{Hash: hash, Key: key, Status: "failed", Err: msg}); err != nil {
		return err
	}
	c.mu.Lock()
	if _, isDone := c.done[hash]; !isDone {
		c.failed[hash] = Failure{Key: key, Err: msg}
	}
	c.mu.Unlock()
	return nil
}

// journal appends one line to the manifest and syncs it, so a completion
// acknowledged to the runner survives a crash.
func (c *Cache) journal(m manifestLine) error {
	data, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("sweep: journal: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.manifest == nil {
		return fmt.Errorf("sweep: journal: cache is closed")
	}
	if _, err := c.manifest.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("sweep: journal: %w", err)
	}
	if err := c.manifest.Sync(); err != nil {
		return fmt.Errorf("sweep: journal: %w", err)
	}
	return nil
}

// Compact rewrites the manifest journal down to one record per live
// entry: every "done" key (sorted by hash, so the output is deterministic)
// followed by every still-standing "failed" key. The journal is
// append-only during normal operation — every Put and PutFailure adds a
// line, and a key that fails, succeeds on retry, or is re-journaled across
// sweeps accumulates superseded records — so a long-lived cache directory
// grows without bound until compacted. The rewrite goes through a
// temporary file that is fully written, synced, and atomically renamed
// over the manifest, so a crash mid-compaction leaves either the old
// journal or the new one, never a truncated hybrid. A torn final line in
// the input journal (a crash mid-append) was already dropped at replay
// and simply vanishes. Compact returns the number of records written.
func (c *Cache) Compact() (records int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.manifest == nil {
		return 0, fmt.Errorf("sweep: compact: cache is closed")
	}
	var lines []manifestLine
	var hashes []string
	for h := range c.done {
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)
	for _, h := range hashes {
		lines = append(lines, c.done[h])
	}
	hashes = hashes[:0]
	for h := range c.failed {
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)
	for _, h := range hashes {
		f := c.failed[h]
		lines = append(lines, manifestLine{Hash: h, Key: f.Key, Status: "failed", Err: f.Err})
	}

	tmp, err := os.CreateTemp(c.dir, ".manifest.tmp*")
	if err != nil {
		return 0, fmt.Errorf("sweep: compact: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	for _, m := range lines {
		data, err := json.Marshal(m)
		if err != nil {
			tmp.Close()
			return 0, fmt.Errorf("sweep: compact: %w", err)
		}
		if _, err := tmp.Write(append(data, '\n')); err != nil {
			tmp.Close()
			return 0, fmt.Errorf("sweep: compact: %w", err)
		}
	}
	if err := errors.Join(tmp.Sync(), tmp.Close()); err != nil {
		return 0, fmt.Errorf("sweep: compact: %w", err)
	}
	// Swap the live append handle: close, rename, reopen. Appends cannot
	// race this (the cache mutex is held), and a rename failure leaves the
	// old journal intact, so reopening it keeps the cache serviceable.
	if err := c.manifest.Close(); err != nil {
		c.manifest = nil
		return 0, fmt.Errorf("sweep: compact: %w", err)
	}
	c.manifest = nil
	if err := os.Rename(tmp.Name(), c.manifestPath()); err != nil {
		f, reopenErr := os.OpenFile(c.manifestPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o666)
		if reopenErr == nil {
			c.manifest = f
		}
		return 0, fmt.Errorf("sweep: compact: %w", errors.Join(err, reopenErr))
	}
	f, err := os.OpenFile(c.manifestPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		return 0, fmt.Errorf("sweep: compact: reopen manifest: %w", err)
	}
	c.manifest = f
	return len(lines), nil
}

// Close releases the manifest handle. Reads and writes after Close fail.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.manifest == nil {
		return nil
	}
	err := c.manifest.Close()
	c.manifest = nil
	return err
}

// Status summarizes the journal for reporting.
type Status struct {
	// Done and Failed count distinct job keys by latest journaled state.
	Done, Failed int
	// Failures lists the failed keys with their journaled errors, sorted
	// by key for deterministic output.
	Failures []Failure
}

// Failure pairs a failed job key with its journaled error.
type Failure struct {
	// Key is the failed job's canonical key.
	Key string
	// Err is the journaled error text.
	Err string
}

// Status reports the cache's current contents.
func (c *Cache) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{Done: len(c.done), Failed: len(c.failed)}
	var hashes []string
	for h := range c.failed {
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)
	for _, h := range hashes {
		st.Failures = append(st.Failures, c.failed[h])
	}
	return st
}
