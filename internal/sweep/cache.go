package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// Cache is the content-addressed on-disk result store. Layout:
//
//	<dir>/objects/<hh>/<hash>.json   one finished Result per job key hash
//	<dir>/failed/<hh>/<hash>.json    the error of a job that failed
//
// The directory is its own index. Each
// file is written to a temporary file, synced, renamed into place, and its
// directory synced, so a completion Put acknowledges survives a crash and
// a crash never leaves a half-written file under a real name. An object
// carries the SHA-256 of its own {Key, Result} payload, and Get serves it
// only when the file decodes, names the requested key, and still matches
// that digest, so an edited, truncated or foreign object is a miss, never
// a wrong hit. Failures are kept only for reporting (swex -status): a
// failed job always re-executes.
//
// The directory is the only state several processes share: each may open
// it, serve hits from it and write into it. Two writers of one key rename
// equal bytes over each other, because a result is a function of its key.
type Cache struct {
	dir string
}

// OpenCache opens (creating if needed) a cache directory.
func OpenCache(dir string) (*Cache, error) {
	for _, tree := range []string{"objects", "failed"} {
		if err := os.MkdirAll(filepath.Join(dir, tree), 0o777); err != nil {
			return nil, fmt.Errorf("sweep: create cache: %w", err)
		}
	}
	return &Cache{dir: dir}, nil
}

// path is the file of a key hash in one of the two trees.
func (c *Cache) path(tree, hash string) string {
	return filepath.Join(c.dir, tree, hash[:2], hash+".json")
}

// object is the on-disk form of one finished job. Digest is the hex
// SHA-256 of the payload's indented encoding, the same encoding the file
// itself uses.
type object struct {
	Key    string
	Result Result
	Digest string
}

// payloadDigest hashes the {Key, Result} payload of an object.
func (o object) payloadDigest() (string, error) {
	data, err := json.MarshalIndent(struct {
		Key    string
		Result Result
	}{o.Key, o.Result}, "", " ")
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// readObject decodes the object at path if it still matches its digest.
// An object written before objects carried digests has none, and is a
// miss like any other that does not verify.
func readObject(path string) (object, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return object{}, false
	}
	var obj object
	if err := json.Unmarshal(data, &obj); err != nil {
		return object{}, false
	}
	if d, err := obj.payloadDigest(); err != nil || d != obj.Digest {
		return object{}, false
	}
	return obj, true
}

// Get returns the cached result for a canonical key. A missing object, one
// that does not verify, and one that names another key (a hash collision)
// are all misses, so the job re-executes and its object is rewritten.
func (c *Cache) Get(key string) (Result, bool) {
	obj, ok := readObject(c.path("objects", HashKey(key)))
	if !ok || obj.Key != key {
		return Result{}, false
	}
	return obj.Result, true
}

// Put stores a finished result and removes any failure recorded for its
// key.
func (c *Cache) Put(key string, res Result) error {
	obj := object{Key: key, Result: res}
	d, err := obj.payloadDigest()
	if err != nil {
		return fmt.Errorf("sweep: cache put: %w", err)
	}
	obj.Digest = d
	hash := HashKey(key)
	if err := writeFile(c.path("objects", hash), obj); err != nil {
		return fmt.Errorf("sweep: cache put: %w", err)
	}
	if err := os.Remove(c.path("failed", hash)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("sweep: cache put: %w", err)
	}
	return nil
}

// PutFailure records a job failure. Failures are never served from the
// cache — they re-execute on resume — but their files let a sweep's
// post-mortem (swex -status) list what went wrong.
func (c *Cache) PutFailure(key string, jobErr error) error {
	f := Failure{Key: key}
	if jobErr != nil {
		f.Err = jobErr.Error()
	}
	if err := writeFile(c.path("failed", HashKey(key)), f); err != nil {
		return fmt.Errorf("sweep: cache put failure: %w", err)
	}
	return nil
}

// writeFile stores v's indented JSON at path: a synced temporary file renamed
// into place, then the directory synced, so the file survives a crash once
// writeFile returns and no reader ever sees it half-written. A fresh <hh>
// directory is made durable in its tree the same way.
func writeFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	dir := filepath.Dir(path)
	if err := os.Mkdir(dir, 0o777); err == nil {
		if err := syncDir(filepath.Dir(dir)); err != nil {
			return err
		}
	} else if !errors.Is(err, fs.ErrExist) {
		return err
	}
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	serr := tmp.Sync()
	cerr := tmp.Close()
	if err := errors.Join(werr, serr, cerr); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return syncDir(dir)
}

// syncDir flushes a directory's entries, so a rename into it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	return errors.Join(d.Sync(), d.Close())
}

// Status summarizes the cache directory for reporting.
type Status struct {
	// Done counts the objects Get would serve; Failed counts the failed
	// keys without such an object.
	Done, Failed int
	// Failures lists the failed keys with their recorded errors, sorted
	// by key for deterministic output.
	Failures []Failure
}

// Failure pairs a failed job key with its recorded error. It is also the
// on-disk form of a failure file.
type Failure struct {
	// Key is the failed job's canonical key.
	Key string
	// Err is the recorded error text.
	Err string
}

// Status walks both trees of the cache directory. A file that is not
// where its content's key puts it, or does not decode (or, for an object,
// verify), is skipped, as Get would skip it.
func (c *Cache) Status() (Status, error) {
	var st Status
	done := make(map[string]bool)
	err := c.walk("objects", func(path string) {
		if obj, ok := readObject(path); ok && path == c.path("objects", HashKey(obj.Key)) {
			done[obj.Key] = true
			st.Done++
		}
	})
	if err != nil {
		return Status{}, err
	}
	err = c.walk("failed", func(path string) {
		var f Failure
		data, rerr := os.ReadFile(path)
		if rerr != nil || json.Unmarshal(data, &f) != nil {
			return
		}
		if path == c.path("failed", HashKey(f.Key)) && !done[f.Key] {
			st.Failures = append(st.Failures, f)
		}
	})
	if err != nil {
		return Status{}, err
	}
	sort.Slice(st.Failures, func(i, j int) bool { return st.Failures[i].Key < st.Failures[j].Key })
	st.Failed = len(st.Failures)
	return st, nil
}

// walk calls visit with the path of every file in one tree.
func (c *Cache) walk(tree string, visit func(path string)) error {
	err := filepath.WalkDir(filepath.Join(c.dir, tree), func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			visit(path)
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("sweep: cache status: %w", err)
	}
	return nil
}
