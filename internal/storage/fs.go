// The filesystem seam for spill files. Spill I/O goes through the FS/File
// interfaces so tests can substitute an in-memory filesystem (MemFS) and a
// fault injector (FaultFS) for the real one (OSFS): the crash/pressure
// harness proves that a spill torn by a failed write, a short write, or a
// dropped fsync can never corrupt join state, because the spill index is
// committed only after a durable write (see internal/delta).
//
// Spill files are scratch, not durable state: they extend memory, and a
// process crash discards them — durability of the incremental computation
// comes from the Section 5.1 snapshot/replay protocol, not from these files.

package storage

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// File is the handle spill code writes and reads through. All access is
// positional (WriteAt/ReadAt), never seek-based: appends go at the caller's
// logical end-of-file, so a failed Truncate costs only dead bytes, never
// correctness.
type File interface {
	io.ReaderAt
	io.WriterAt
	io.Closer
	// Sync makes previously written bytes durable. Spill runs are indexed
	// only after Sync returns nil.
	Sync() error
	// Truncate discards bytes past size (space hygiene after Restore).
	Truncate(size int64) error
}

// FS creates and removes spill files by name.
type FS interface {
	// Create opens name for read/write, truncating any previous content.
	Create(name string) (File, error)
	// Remove deletes the named file.
	Remove(name string) error
}

// ---------------------------------------------------------------------------
// OSFS

// OSFS is the real filesystem rooted at Dir.
type OSFS struct {
	Dir string
}

// Create implements FS.
func (fs OSFS) Create(name string) (File, error) {
	return os.OpenFile(filepath.Join(fs.Dir, name), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o600)
}

// Remove implements FS.
func (fs OSFS) Remove(name string) error {
	return os.Remove(filepath.Join(fs.Dir, name))
}

// ---------------------------------------------------------------------------
// MemFS

// MemFS is an in-memory FS with explicit durability: Sync snapshots a file's
// content, Crash reverts every file to its last-synced content — which makes
// the "process died between write and fsync" window directly testable.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memFile
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string]*memFile)}
}

// Create implements FS.
func (fs *MemFS) Create(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f := &memFile{}
	fs.files[name] = f
	return f, nil
}

// Remove implements FS.
func (fs *MemFS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[name]; !ok {
		return fmt.Errorf("memfs: %q does not exist", name)
	}
	delete(fs.files, name)
	return nil
}

// Crash reverts every file to its last-synced content, simulating a machine
// crash: writes not followed by a successful Sync are lost.
func (fs *MemFS) Crash() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, f := range fs.files {
		f.crash()
	}
}

type memFile struct {
	mu     sync.Mutex
	data   []byte
	synced []byte
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if off < 0 {
		return 0, fmt.Errorf("memfs: negative offset %d", off)
	}
	if off >= int64(len(f.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if off < 0 {
		return 0, fmt.Errorf("memfs: negative offset %d", off)
	}
	end := off + int64(len(p))
	for int64(len(f.data)) < end {
		f.data = append(f.data, 0)
	}
	copy(f.data[off:end], p)
	return len(p), nil
}

func (f *memFile) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.synced = append(f.synced[:0], f.data...)
	return nil
}

func (f *memFile) Truncate(size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if size < 0 {
		return fmt.Errorf("memfs: negative size %d", size)
	}
	for int64(len(f.data)) < size {
		f.data = append(f.data, 0)
	}
	f.data = f.data[:size]
	return nil
}

func (f *memFile) crash() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.data = append([]byte(nil), f.synced...)
}

func (f *memFile) Close() error { return nil }

// ---------------------------------------------------------------------------
// FaultFS

// ErrInjected is the error FaultFS returns at a scheduled fault point.
var ErrInjected = errors.New("storage: injected fault")

// FaultFS wraps an FS and injects failures at the Nth operation: a failed or
// short WriteAt, a failed Sync, or silently dropped Syncs (data claimed
// durable but lost on MemFS.Crash). Counters are FS-global so a schedule
// like "fail the 3rd write anywhere" spans files. Safe for concurrent use.
type FaultFS struct {
	inner FS

	mu          sync.Mutex
	writes      int
	syncs       int
	failWriteAt int  // 1-based write index to fail; 0 = never
	shortWrite  bool // failed write persists a prefix first
	failSyncAt  int  // 1-based sync index to fail; 0 = never
	dropSyncs   bool // Syncs return nil without syncing
}

// NewFaultFS wraps inner with no faults scheduled.
func NewFaultFS(inner FS) *FaultFS { return &FaultFS{inner: inner} }

// FailWriteAt schedules the nth WriteAt (1-based, across all files) to fail
// with ErrInjected; when short is set, the first half of the buffer is
// written before the error (a torn write). n <= 0 clears the schedule.
func (fs *FaultFS) FailWriteAt(n int, short bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.failWriteAt = n
	fs.shortWrite = short
}

// FailSyncAt schedules the nth Sync (1-based) to fail with ErrInjected.
func (fs *FaultFS) FailSyncAt(n int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.failSyncAt = n
}

// DropSyncs makes every Sync succeed without syncing — the lying-fsync
// fault. Combine with MemFS.Crash to lose "durable" bytes.
func (fs *FaultFS) DropSyncs(on bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.dropSyncs = on
}

// Ops reports how many WriteAt and Sync calls have passed through.
func (fs *FaultFS) Ops() (writes, syncs int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.writes, fs.syncs
}

// Create implements FS.
func (fs *FaultFS) Create(name string) (File, error) {
	f, err := fs.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: fs, inner: f}, nil
}

// Remove implements FS.
func (fs *FaultFS) Remove(name string) error { return fs.inner.Remove(name) }

type faultFile struct {
	fs    *FaultFS
	inner File
}

func (f *faultFile) ReadAt(p []byte, off int64) (int, error) { return f.inner.ReadAt(p, off) }
func (f *faultFile) Truncate(size int64) error               { return f.inner.Truncate(size) }
func (f *faultFile) Close() error                            { return f.inner.Close() }

func (f *faultFile) WriteAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	f.fs.writes++
	fail := f.fs.failWriteAt > 0 && f.fs.writes == f.fs.failWriteAt
	short := f.fs.shortWrite
	f.fs.mu.Unlock()
	if fail {
		if short && len(p) > 1 {
			n, _ := f.inner.WriteAt(p[:len(p)/2], off)
			return n, fmt.Errorf("short write at offset %d: %w", off, ErrInjected)
		}
		return 0, fmt.Errorf("write at offset %d: %w", off, ErrInjected)
	}
	return f.inner.WriteAt(p, off)
}

func (f *faultFile) Sync() error {
	f.fs.mu.Lock()
	f.fs.syncs++
	fail := f.fs.failSyncAt > 0 && f.fs.syncs == f.fs.failSyncAt
	drop := f.fs.dropSyncs
	f.fs.mu.Unlock()
	if fail {
		return fmt.Errorf("sync: %w", ErrInjected)
	}
	if drop {
		return nil
	}
	return f.inner.Sync()
}
