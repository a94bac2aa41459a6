package main

import (
	"strings"
	"sync/atomic"

	"cbvr/internal/vstore"
)

// countFS wraps the production filesystem and counts the storage layer's
// I/O from outside: bytes read from and written to the data file, and
// fsyncs of any file. It is installed only in traced runs, through the
// public vstore.Options.FS hook.
type countFS struct {
	vstore.OSFS
	dataRead, dataWritten atomic.Int64
	syncs                 atomic.Int64
}

// ioCounts is a snapshot of a countFS, in pages and calls.
type ioCounts struct {
	pageReads, pageWrites, syncs float64
}

func (c *countFS) snapshot() ioCounts {
	if c == nil {
		return ioCounts{}
	}
	return ioCounts{
		pageReads:  float64(c.dataRead.Load()) / vstore.PageSize,
		pageWrites: float64(c.dataWritten.Load()) / vstore.PageSize,
		syncs:      float64(c.syncs.Load()),
	}
}

func (a ioCounts) sub(b ioCounts) ioCounts {
	return ioCounts{a.pageReads - b.pageReads, a.pageWrites - b.pageWrites, a.syncs - b.syncs}
}

func (c *countFS) OpenFile(path string) (vstore.File, error) {
	f, err := c.OSFS.OpenFile(path)
	if err != nil {
		return nil, err
	}
	// The WAL lives beside the data file at path+".wal"; page counts
	// are for the data file only.
	return &countFile{File: f, fs: c, data: !strings.HasSuffix(path, ".wal")}, nil
}

type countFile struct {
	vstore.File
	fs   *countFS
	data bool
}

func (f *countFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	if f.data {
		f.fs.dataRead.Add(int64(n))
	}
	return n, err
}

func (f *countFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	if f.data {
		f.fs.dataWritten.Add(int64(n))
	}
	return n, err
}

func (f *countFile) Sync() error {
	f.fs.syncs.Add(1)
	return f.File.Sync()
}
