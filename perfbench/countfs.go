package main

import (
	"sync/atomic"

	"repro/internal/store"
)

// countFS is a store.FS over the real disk that counts the I/O the
// store asks for: fsyncs (file and directory), bytes written, and the
// bytes the buffer pool's chunk faults read with ReadAt.
type countFS struct {
	store.OSFS
	fsyncs       atomic.Int64
	bytesWritten atomic.Int64
	readAtBytes  atomic.Int64
}

// ioCounts is a snapshot of a countFS.
type ioCounts struct {
	fsyncs, written, readAt int64
}

func (c *countFS) snapshot() ioCounts {
	return ioCounts{c.fsyncs.Load(), c.bytesWritten.Load(), c.readAtBytes.Load()}
}

func (a ioCounts) sub(b ioCounts) ioCounts {
	return ioCounts{a.fsyncs - b.fsyncs, a.written - b.written, a.readAt - b.readAt}
}

func (c *countFS) wrap(f store.File, err error) (store.File, error) {
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c}, nil
}

func (c *countFS) Create(name string) (store.File, error)     { return c.wrap(c.OSFS.Create(name)) }
func (c *countFS) OpenAppend(name string) (store.File, error) { return c.wrap(c.OSFS.OpenAppend(name)) }

func (c *countFS) SyncDir(dir string) error {
	c.fsyncs.Add(1)
	return c.OSFS.SyncDir(dir)
}

func (c *countFS) ReadAt(name string, off int64, p []byte) (int, error) {
	n, err := c.OSFS.ReadAt(name, off, p)
	c.readAtBytes.Add(int64(n))
	return n, err
}

// countFile counts the writes and fsyncs of a file opened for writing.
type countFile struct {
	store.File
	fs *countFS
}

func (f *countFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.bytesWritten.Add(int64(n))
	return n, err
}

func (f *countFile) Sync() error {
	f.fs.fsyncs.Add(1)
	return f.File.Sync()
}
