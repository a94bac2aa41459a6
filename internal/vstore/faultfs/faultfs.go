// Package faultfs is an in-memory vstore.VFS that injects storage faults
// deterministically: I/O errors, ENOSPC, fsync failures, short and torn
// writes, and power-loss simulation. Every filesystem operation the engine
// performs is assigned a global op index and described to an injector
// callback, which decides its fate; tests sweep fault points by re-running
// a workload with a fault armed at each recorded index.
//
// Durability model. Each file keeps two images: `current` (what the
// process observes) and `synced` (what survives power loss). WriteAt and
// Truncate act on current only; Sync copies current over synced. A power
// cut replaces current with synced, drops files whose directory entry was
// never made durable via SyncDir, and invalidates every open handle —
// reopening through the same FS then sees exactly what a rebooted process
// would. A torn write models the opposite extreme (the OS wrote
// everything back on its own, then power failed mid-sector): all pending
// state is treated as flushed, a prefix of the torn write lands, and the
// power cut follows. The two extremes bracket real write-back behaviour.
package faultfs

import (
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"cbvr/internal/vstore"
)

// OpKind classifies a filesystem operation.
type OpKind int

const (
	OpOpen OpKind = iota
	OpRead
	OpWrite
	OpSync
	OpTruncate
	OpClose
	OpSyncDir
)

func (k OpKind) String() string {
	switch k {
	case OpOpen:
		return "open"
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpTruncate:
		return "truncate"
	case OpClose:
		return "close"
	case OpSyncDir:
		return "syncdir"
	default:
		return "unknown"
	}
}

// Op describes one filesystem operation about to run.
type Op struct {
	Index int // global op counter, starting at 0
	Kind  OpKind
	Name  string // base name of the file ("x.db", "x.db.wal")
	Off   int64  // for read/write/truncate
	Len   int    // for read/write
}

// Action is an injector's verdict on an op.
type Action int

const (
	// ActNone lets the op run normally.
	ActNone Action = iota
	// ActErr fails the op with ErrInjected; no bytes move.
	ActErr
	// ActENOSPC fails a write with syscall.ENOSPC; no bytes move.
	ActENOSPC
	// ActShortWrite applies half the buffer, then fails with ENOSPC —
	// the torn extension a full disk leaves behind.
	ActShortWrite
	// ActTornWrite treats all pending state as flushed by OS write-back,
	// lands half of this write, then cuts power.
	ActTornWrite
	// ActPowerCut drops everything un-synced and invalidates all open
	// handles before the op runs; the op fails with ErrPowerLost.
	ActPowerCut
)

// ErrInjected is the generic injected I/O error.
var ErrInjected = fmt.Errorf("faultfs: injected I/O error")

// ErrPowerLost is returned by every operation on a handle opened before
// the most recent power cut.
var ErrPowerLost = fmt.Errorf("faultfs: power lost")

// Injector decides the fate of each op. It runs under the FS mutex: keep
// it fast and do not call back into the FS.
type Injector func(Op) Action

// Latency assigns each op an artificial service time. Like Injector it
// runs under the FS mutex, but the sleep itself happens with the mutex
// released, so one slow op does not serialize the whole filesystem — the
// model is a slow disk, not a frozen one.
type Latency func(Op) time.Duration

// FS is the fault-injecting in-memory filesystem.
type FS struct {
	mu      sync.Mutex
	files   map[string]*memFile
	gen     int // bumped on power cut; stale handles fail
	ops     int
	inject  Injector
	latency Latency
}

type memFile struct {
	current   []byte
	synced    []byte
	dirSynced bool // directory entry durable (survives power cut)
}

// New returns an empty fault-injecting filesystem with no injector armed.
func New() *FS {
	return &FS{files: make(map[string]*memFile)}
}

// SetInjector installs (or, with nil, removes) the fault decision
// callback. The callback also doubles as an op recorder: return ActNone
// while appending ops to capture a workload's op trace.
func (fs *FS) SetInjector(fn Injector) {
	fs.mu.Lock()
	fs.inject = fn
	fs.mu.Unlock()
}

// SetLatency installs (or, with nil, removes) the per-op latency model.
// Ops that the injector fails are not delayed: injected faults fail fast.
func (fs *FS) SetLatency(fn Latency) {
	fs.mu.Lock()
	fs.latency = fn
	fs.mu.Unlock()
}

// Ops returns the number of operations performed so far.
func (fs *FS) Ops() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.ops
}

// CutPower simulates power loss right now: un-synced data is dropped,
// files with no durable directory entry vanish, and every open handle goes
// stale. The FS itself stays usable — OpenFile afterwards models the
// post-reboot process.
func (fs *FS) CutPower() {
	fs.mu.Lock()
	fs.cutLocked()
	fs.mu.Unlock()
}

func (fs *FS) cutLocked() {
	fs.gen++
	for name, f := range fs.files {
		if !f.dirSynced {
			delete(fs.files, name)
			continue
		}
		f.current = append([]byte(nil), f.synced...)
	}
}

// SyncedSize reports the durable length of a file, for test assertions.
func (fs *FS) SyncedSize(name string) int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if f, ok := fs.files[filepath.Base(name)]; ok {
		return int64(len(f.synced))
	}
	return -1
}

// step assigns the next op index, asks the injector for a verdict, and —
// for ops that will run — asks the latency model for a service time. The
// caller sleeps the returned delay via pause, never under the mutex.
func (fs *FS) step(kind OpKind, name string, off int64, n int) (Action, time.Duration, error) {
	op := Op{Index: fs.ops, Kind: kind, Name: name, Off: off, Len: n}
	fs.ops++
	act := ActNone
	if fs.inject != nil {
		act = fs.inject(op)
	}
	switch act {
	case ActPowerCut:
		fs.cutLocked()
		return act, 0, ErrPowerLost
	case ActErr:
		return act, 0, ErrInjected
	case ActENOSPC:
		return act, 0, syscall.ENOSPC
	}
	var delay time.Duration
	if fs.latency != nil {
		delay = fs.latency(op)
	}
	return act, delay, nil
}

// pause sleeps an injected delay with the FS mutex released, so a slow op
// stalls only its caller. Callers touching a handle must re-check
// staleness afterwards: a power cut may have landed mid-sleep.
func (fs *FS) pause(d time.Duration) {
	fs.mu.Unlock()
	time.Sleep(d)
	fs.mu.Lock()
}

// OpenFile implements vstore.VFS.
func (fs *FS) OpenFile(path string) (vstore.File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	name := filepath.Base(path)
	_, delay, err := fs.step(OpOpen, name, 0, 0)
	if err != nil {
		return nil, fmt.Errorf("faultfs: open %s: %w", name, err)
	}
	if delay > 0 {
		fs.pause(delay)
	}
	f, ok := fs.files[name]
	if !ok {
		f = &memFile{}
		fs.files[name] = f
	}
	return &handle{fs: fs, f: f, name: name, gen: fs.gen}, nil
}

// SyncDir implements vstore.VFS: it makes the directory entries of every
// file durable (the flat in-memory namespace has a single directory).
func (fs *FS) SyncDir(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, delay, err := fs.step(OpSyncDir, filepath.Base(path), 0, 0)
	if err != nil {
		return fmt.Errorf("faultfs: sync dir: %w", err)
	}
	if delay > 0 {
		fs.pause(delay)
	}
	for _, f := range fs.files {
		f.dirSynced = true
	}
	return nil
}

type handle struct {
	fs   *FS
	f    *memFile
	name string
	gen  int
}

func (h *handle) stale() bool { return h.gen != h.fs.gen }

func (h *handle) ReadAt(p []byte, off int64) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.stale() {
		return 0, ErrPowerLost
	}
	_, delay, err := h.fs.step(OpRead, h.name, off, len(p))
	if err != nil {
		return 0, err
	}
	if delay > 0 {
		h.fs.pause(delay)
		if h.stale() {
			return 0, ErrPowerLost
		}
	}
	if off >= int64(len(h.f.current)) {
		return 0, io.EOF
	}
	n := copy(p, h.f.current[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (h *handle) WriteAt(p []byte, off int64) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.stale() {
		return 0, ErrPowerLost
	}
	act, delay, err := h.fs.step(OpWrite, h.name, off, len(p))
	if err != nil {
		return 0, err
	}
	if delay > 0 {
		h.fs.pause(delay)
		if h.stale() {
			return 0, ErrPowerLost
		}
	}
	switch act {
	case ActShortWrite:
		n := len(p) / 2
		h.f.applyCurrent(p[:n], off)
		return n, syscall.ENOSPC
	case ActTornWrite:
		// Adversarial write-back: everything pending flushes, then a
		// prefix of this write reaches the platter, then the power fails.
		for _, f := range h.fs.files {
			if f.dirSynced {
				f.synced = append([]byte(nil), f.current...)
			}
		}
		h.f.applySynced(p[:len(p)/2], off)
		h.fs.cutLocked()
		return 0, ErrPowerLost
	}
	h.f.applyCurrent(p, off)
	return len(p), nil
}

func (h *handle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.stale() {
		return ErrPowerLost
	}
	_, delay, err := h.fs.step(OpSync, h.name, 0, 0)
	if err != nil {
		// Failed-fsync semantics: nothing can be assumed about what
		// reached the platter; synced state is left as-is (the
		// conservative end of the fsyncgate spectrum).
		return err
	}
	if delay > 0 {
		h.fs.pause(delay)
		if h.stale() {
			return ErrPowerLost
		}
	}
	h.f.synced = append([]byte(nil), h.f.current...)
	return nil
}

func (h *handle) Truncate(size int64) error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.stale() {
		return ErrPowerLost
	}
	_, delay, err := h.fs.step(OpTruncate, h.name, size, 0)
	if err != nil {
		return err
	}
	if delay > 0 {
		h.fs.pause(delay)
		if h.stale() {
			return ErrPowerLost
		}
	}
	if size <= int64(len(h.f.current)) {
		h.f.current = h.f.current[:size]
	} else {
		h.f.current = append(h.f.current, make([]byte, size-int64(len(h.f.current)))...)
	}
	return nil
}

func (h *handle) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.stale() {
		return ErrPowerLost
	}
	if _, _, err := h.fs.step(OpClose, h.name, 0, 0); err != nil {
		return err
	}
	return nil
}

func (h *handle) Size() (int64, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.stale() {
		return 0, ErrPowerLost
	}
	return int64(len(h.f.current)), nil
}

func (f *memFile) applyCurrent(p []byte, off int64) {
	f.current = applyAt(f.current, p, off)
}

func (f *memFile) applySynced(p []byte, off int64) {
	f.synced = applyAt(f.synced, p, off)
}

func applyAt(dst, p []byte, off int64) []byte {
	end := off + int64(len(p))
	if int64(len(dst)) < end {
		dst = append(dst, make([]byte, end-int64(len(dst)))...)
	}
	copy(dst[off:end], p)
	return dst
}
