// Package simdisk models the physical storage substrate: disks with an
// explicit service-time model and a simple file system on top of them.
//
// Operator faults in the paper act at this level (deleting a datafile is
// deleting a file on a disk), and the performance/recovery trade-offs the
// paper measures are dominated by disk costs, so the model is explicit:
// every read or write is charged positioning time plus transfer time on a
// per-disk FIFO queue, with sequential access discounted.
package simdisk

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"dbench/internal/sim"
)

// Common errors returned by file operations.
var (
	ErrNotFound = errors.New("simdisk: file not found")
	ErrExists   = errors.New("simdisk: file already exists")
	ErrDeleted  = errors.New("simdisk: file deleted")
	ErrNoDisk   = errors.New("simdisk: unknown disk")
)

// DiskSpec describes the cost model of one disk.
type DiskSpec struct {
	// Name identifies the disk (e.g. "data1", "redo", "arch").
	Name string
	// Position is the average positioning cost (seek + rotational
	// latency) charged for a random access.
	Position time.Duration
	// SeqPosition is the positioning cost charged when an access
	// continues sequentially from the previous one on this disk.
	SeqPosition time.Duration
	// TransferBytesPerSec is the sustained media transfer rate.
	TransferBytesPerSec int64
}

// DefaultSpec returns a cost model in the ballpark of the paper's year-2000
// server disks (20 GB IDE/SCSI class): ~9 ms random positioning, ~20 MB/s
// sustained transfer.
func DefaultSpec(name string) DiskSpec {
	return DiskSpec{
		Name:                name,
		Position:            9 * time.Millisecond,
		SeqPosition:         300 * time.Microsecond,
		TransferBytesPerSec: 20 << 20,
	}
}

// Disk is a simulated disk: a FIFO-queued device charging DiskSpec costs.
type Disk struct {
	spec DiskSpec
	res  *sim.Resource

	lastFile string
	lastOff  int64

	reads      int64
	writes     int64
	readBytes  int64
	writeBytes int64
}

// NewDisk creates a disk with the given cost model.
func NewDisk(spec DiskSpec) *Disk {
	if spec.TransferBytesPerSec <= 0 {
		spec.TransferBytesPerSec = 20 << 20
	}
	return &Disk{spec: spec, res: sim.NewResource(1)}
}

// Spec returns the disk's cost model.
func (d *Disk) Spec() DiskSpec { return d.spec }

// Stats reports operation and byte counters.
func (d *Disk) Stats() (reads, writes, readBytes, writeBytes int64) {
	return d.reads, d.writes, d.readBytes, d.writeBytes
}

// BusyTotal reports the accumulated busy time of the disk.
func (d *Disk) BusyTotal() time.Duration { return d.res.BusyTotal() }

// serviceTime computes the charge for an access of size bytes at offset off
// within file, given the disk head's last position.
func (d *Disk) serviceTime(file string, off, size int64) time.Duration {
	pos := d.spec.Position
	if file == d.lastFile && off == d.lastOff {
		pos = d.spec.SeqPosition
	}
	transfer := time.Duration(size * int64(time.Second) / d.spec.TransferBytesPerSec)
	return pos + transfer
}

// access performs a queued access, advancing virtual time.
func (d *Disk) access(p *sim.Proc, file string, off, size int64, write bool) {
	if size < 0 {
		size = 0
	}
	d.res.Acquire(p)
	defer d.res.Release(p) // killed processes must not wedge the disk
	svc := d.serviceTime(file, off, size)
	d.lastFile = file
	d.lastOff = off + size
	if write {
		d.writes++
		d.writeBytes += size
	} else {
		d.reads++
		d.readBytes += size
	}
	p.Sleep(svc)
}

// Use charges a raw access of size bytes directly against the disk's
// queue, without a backing file: sequential selects the discounted
// positioning cost. Recovery code uses it to charge log-scan portions.
func (d *Disk) Use(p *sim.Proc, size int64, sequential, write bool) {
	if size < 0 {
		size = 0
	}
	d.res.Acquire(p)
	defer d.res.Release(p)
	pos := d.spec.Position
	if sequential {
		pos = d.spec.SeqPosition
	}
	transfer := time.Duration(size * int64(time.Second) / d.spec.TransferBytesPerSec)
	if write {
		d.writes++
		d.writeBytes += size
	} else {
		d.reads++
		d.readBytes += size
	}
	d.lastFile = ""
	d.lastOff = 0
	p.Sleep(pos + transfer)
}

// File is a named extent of bytes on one disk. The simulation does not
// store payload bytes; it tracks size, liveness and corruption, which is
// all the engine needs to decide outcomes. Durable content is modelled at
// the storage layer.
type File struct {
	name      string
	disk      *Disk
	size      int64
	deleted   bool
	corrupted bool
}

// Name returns the file's path.
func (f *File) Name() string { return f.name }

// Size returns the file length in bytes.
func (f *File) Size() int64 { return f.size }

// Disk returns the disk holding the file.
func (f *File) Disk() *Disk { return f.disk }

// Deleted reports whether the file has been removed.
func (f *File) Deleted() bool { return f.deleted }

// Corrupted reports whether the file content has been damaged.
func (f *File) Corrupted() bool { return f.corrupted }

// FS is a simulated file system spanning a set of named disks.
type FS struct {
	disks map[string]*Disk
	files map[string]*File
}

// NewFS returns a file system over the given disks.
func NewFS(specs ...DiskSpec) *FS {
	fs := &FS{
		disks: make(map[string]*Disk, len(specs)),
		files: make(map[string]*File),
	}
	for _, s := range specs {
		fs.disks[s.Name] = NewDisk(s)
	}
	return fs
}

// Disk returns the named disk, or nil.
func (fs *FS) Disk(name string) *Disk { return fs.disks[name] }

// DiskNames returns the sorted disk names.
func (fs *FS) DiskNames() []string {
	names := make([]string, 0, len(fs.disks))
	for n := range fs.disks {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Create makes a file of the given size on the named disk. Creating charges
// no time (allocation is metadata-only); population is charged by writes.
func (fs *FS) Create(disk, name string, size int64) (*File, error) {
	d, ok := fs.disks[disk]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoDisk, disk)
	}
	if f, ok := fs.files[name]; ok && !f.deleted {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	f := &File{name: name, disk: d, size: size}
	fs.files[name] = f
	return f, nil
}

// Lookup returns the named file even if deleted, or ErrNotFound.
func (fs *FS) Lookup(name string) (*File, error) {
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return f, nil
}

// Open returns the named live file.
func (fs *FS) Open(name string) (*File, error) {
	f, err := fs.Lookup(name)
	if err != nil {
		return nil, err
	}
	if f.deleted {
		return nil, fmt.Errorf("%w: %q", ErrDeleted, name)
	}
	return f, nil
}

// Delete removes a file, as an operator (or the engine) would. The file's
// metadata is retained so recovery code can observe what was lost.
func (fs *FS) Delete(name string) error {
	f, err := fs.Open(name)
	if err != nil {
		return err
	}
	f.deleted = true
	return nil
}

// Corrupt damages a file's content in place.
func (fs *FS) Corrupt(name string) error {
	f, err := fs.Open(name)
	if err != nil {
		return err
	}
	f.corrupted = true
	return nil
}

// Restore revives a deleted or corrupted file (e.g. re-created from a
// backup). Size is reset to the given value.
func (fs *FS) Restore(name string, size int64) (*File, error) {
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	f.deleted = false
	f.corrupted = false
	f.size = size
	return f, nil
}

// Files returns the sorted names of all live files.
func (fs *FS) Files() []string {
	var names []string
	for n, f := range fs.files {
		if !f.deleted {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// Read charges a read of size bytes at offset off in the file. It fails if
// the file is deleted; reading corrupted content succeeds at this layer
// (checksum validation happens above).
func (f *File) Read(p *sim.Proc, off, size int64) error {
	if f.deleted {
		return fmt.Errorf("%w: %q", ErrDeleted, f.name)
	}
	f.disk.access(p, f.name, off, size, false)
	return nil
}

// Write charges a write of size bytes at offset off, extending the file if
// needed.
func (f *File) Write(p *sim.Proc, off, size int64) error {
	if f.deleted {
		return fmt.Errorf("%w: %q", ErrDeleted, f.name)
	}
	f.disk.access(p, f.name, off, size, true)
	if off+size > f.size {
		f.size = off + size
	}
	return nil
}

// Append charges a sequential write at the end of the file.
func (f *File) Append(p *sim.Proc, size int64) error {
	return f.Write(p, f.size, size)
}

// Truncate resets the file length (no time charged; metadata only).
func (f *File) Truncate(size int64) {
	if size < 0 {
		size = 0
	}
	f.size = size
}

// ReadAll charges a full sequential scan of the file.
func (f *File) ReadAll(p *sim.Proc) error {
	if f.deleted {
		return fmt.Errorf("%w: %q", ErrDeleted, f.name)
	}
	const chunk = 1 << 20
	var off int64
	for off < f.size {
		n := f.size - off
		if n > chunk {
			n = chunk
		}
		f.disk.access(p, f.name, off, n, false)
		off += n
	}
	if f.size == 0 {
		f.disk.access(p, f.name, 0, 0, false)
	}
	return nil
}
