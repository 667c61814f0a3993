// Package storage implements the physical database structures: data
// blocks, datafiles, tablespaces and the control file.
//
// Datafiles hold the *durable* block images; the buffer cache (package
// bufcache) holds working copies. Operator faults act on the underlying
// simulated files (delete/corrupt), and recovery reconstructs the durable
// images from backups plus redo.
package storage

import (
	"errors"
	"fmt"
	"sort"

	"dbench/internal/redo"
	"dbench/internal/sim"
	"dbench/internal/simdisk"
)

// BlockSize is the database block size in bytes (Oracle's common 8 KB).
const BlockSize = 8192

// Errors reported by the physical layer.
var (
	ErrFileLost       = errors.New("storage: datafile lost")
	ErrFileOffline    = errors.New("storage: datafile offline")
	ErrTbsOffline     = errors.New("storage: tablespace offline")
	ErrNoSpace        = errors.New("storage: out of space")
	ErrUnknownTbs     = errors.New("storage: unknown tablespace")
	ErrControlLost    = errors.New("storage: control file lost")
	ErrBlockCorrupted = errors.New("storage: block corrupted")
)

// Block is the content of one database block: a set of rows keyed by row
// id, stamped with the SCN of the last change applied.
//
// An image is shared, not copied: a datafile, a backup, a cache buffer and
// a scan may all hold the same *Block. That is safe on two invariants — row
// images are replaced, never written in place, and an image with a second
// holder is never changed again: whoever wants to change it first takes a
// Clone. Change rows through Put and Remove, which enforce the second.
type Block struct {
	SCN     redo.SCN
	Rows    map[int64][]byte
	Corrupt bool

	// shared is set, for good, when the image gets a second holder.
	shared bool
}

// NewBlock returns an empty block.
func NewBlock() *Block {
	return &Block{Rows: make(map[int64][]byte)}
}

// Share marks b as having a second holder and returns it: from here on it
// is read-only, and a holder that wants to change it works on a Clone.
func (b *Block) Share() *Block {
	b.shared = true
	return b
}

// Shared reports whether b may have a second holder.
func (b *Block) Shared() bool { return b.shared }

// Clone returns an unshared copy of b for its caller to change. It copies
// the row index, not the row bytes: row images are never written in place,
// so the copy and the original can point at the same ones.
func (b *Block) Clone() *Block {
	c := &Block{SCN: b.SCN, Corrupt: b.Corrupt, Rows: make(map[int64][]byte, len(b.Rows))}
	for k, v := range b.Rows {
		c.Rows[k] = v
	}
	return c
}

// Put sets a row's image to v itself, which nobody writes through again.
func (b *Block) Put(key int64, v []byte) {
	b.mustOwn()
	b.Rows[key] = v
}

// Remove deletes a row.
func (b *Block) Remove(key int64) {
	b.mustOwn()
	delete(b.Rows, key)
}

// Apply makes data record rec's change to the block: it removes the row
// for a delete and puts rec.After otherwise, which the block and the record
// then share. Undoing a change is applying its rec.Inverse().
func (b *Block) Apply(rec *redo.Record) {
	if rec.Op == redo.OpDelete {
		b.Remove(rec.Key)
	} else {
		b.Put(rec.Key, rec.After)
	}
}

// mustOwn turns a change to an image someone else also holds — which would
// silently rewrite a backup or a durable image — into a stack trace at the
// write.
func (b *Block) mustOwn() {
	if b.shared {
		panic("storage: change to a shared block image")
	}
}

// Datafile is one physical database file holding durable block images.
type Datafile struct {
	Name       string
	Tablespace string

	// CkptSCN is the file's checkpoint SCN: all changes up to it are in
	// the durable images. Media recovery of the file replays redo from
	// here. Updated by the engine at each completed checkpoint while
	// the file is online and intact.
	CkptSCN redo.SCN
	// UndoSCN is the undo low-watermark recorded with CkptSCN: redo
	// scanning for this file's recovery starts at ScanStart(CkptSCN,
	// UndoSCN) so in-flight transactions flushed by the checkpoint can
	// be rolled back.
	UndoSCN redo.SCN
	// NeedsRecovery marks a file whose durable images may lag the redo
	// stream (offlined immediately, or freshly restored from backup).
	// It must be media-recovered before going online.
	NeedsRecovery bool

	file      *simdisk.File
	blocks    []*Block
	ts        *Tablespace
	online    bool
	shardHint uint32
	header    []byte
}

// SetHeader stamps the file's metadata header (conceptually block 0): an
// opaque blob the catalog maintains describing the segments the file
// hosts. Headers survive everything short of losing the file itself, so
// `recover --scan` can rebuild dictionary metadata from disk alone.
func (d *Datafile) SetHeader(b []byte) { d.header = append([]byte(nil), b...) }

// CorruptHeader damages the metadata header in place (operator-fault
// simulation): the blob stays present but no longer decodes.
func (d *Datafile) CorruptHeader() {
	for i := range d.header {
		d.header[i] ^= 0xA5
	}
}

// ReadHeader charges one block read and returns the metadata header. It
// ignores the online flag — scanning headers is exactly what recovery
// does while the dictionary (and so the notion of "online") is in doubt —
// but still fails on lost media.
func (d *Datafile) ReadHeader(p *sim.Proc) ([]byte, error) {
	if d.file.Deleted() || d.file.Corrupted() {
		return nil, fmt.Errorf("%w: %s", ErrFileLost, d.Name)
	}
	if err := d.file.Read(p, 0, BlockSize); err != nil {
		return nil, err
	}
	return d.header, nil
}

// File returns the underlying simulated file.
func (d *Datafile) File() *simdisk.File { return d.file }

// Tbs returns the owning tablespace. The back-pointer survives a DROP
// TABLESPACE (the Tablespace object lives on in backups), so DML routing
// can report tablespace-level unavailability even while the tablespace is
// deregistered from the DB.
func (d *Datafile) Tbs() *Tablespace { return d.ts }

// ShardHint returns a stable hash of the file's name, computed once at
// creation. The buffer cache mixes it with block numbers to pick a cache
// shard, so shard placement is deterministic across runs and per-warehouse
// datafiles spread over shards without hashing strings on every access.
func (d *Datafile) ShardHint() uint32 { return d.shardHint }

// nameHash is FNV-1a over the file name.
func nameHash(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// Online reports whether the file is online (available for I/O).
func (d *Datafile) Online() bool { return d.online }

// SetOnline changes the file's availability.
func (d *Datafile) SetOnline(v bool) { d.online = v }

// Lost reports whether the backing file is deleted or corrupted.
func (d *Datafile) Lost() bool { return d.file.Deleted() || d.file.Corrupted() }

// NumBlocks returns the number of allocated blocks.
func (d *Datafile) NumBlocks() int { return len(d.blocks) }

// SizeBytes returns the file's nominal size.
func (d *Datafile) SizeBytes() int64 { return int64(len(d.blocks)) * BlockSize }

// available returns an error when the file cannot serve I/O.
func (d *Datafile) available() error {
	if d.file.Deleted() {
		return fmt.Errorf("%w: %s deleted", ErrFileLost, d.Name)
	}
	if d.file.Corrupted() {
		return fmt.Errorf("%w: %s corrupted", ErrFileLost, d.Name)
	}
	if !d.online {
		return fmt.Errorf("%w: %s", ErrFileOffline, d.Name)
	}
	return nil
}

// ReadBlock charges a random block read and returns the durable image
// itself, marked shared: the caller may keep it as long as it likes and
// changes only a Clone of it.
func (d *Datafile) ReadBlock(p *sim.Proc, no int) (*Block, error) {
	if err := d.available(); err != nil {
		return nil, err
	}
	if no < 0 || no >= len(d.blocks) {
		return nil, fmt.Errorf("storage: block %d out of range in %s", no, d.Name)
	}
	if err := d.file.Read(p, int64(no)*BlockSize, BlockSize); err != nil {
		return nil, err
	}
	b := d.blocks[no]
	if b.Corrupt {
		return nil, fmt.Errorf("%w: %s block %d", ErrBlockCorrupted, d.Name, no)
	}
	return b.Share(), nil
}

// WriteBlock charges a random block write and installs b as the durable
// image — b itself, not a copy. A caller that keeps b (the cache does)
// marks it shared first; one that hands over a private image does not touch
// it afterwards.
func (d *Datafile) WriteBlock(p *sim.Proc, no int, b *Block) error {
	return d.writeBlock(p, no, b, false)
}

// WriteBlockForce is WriteBlock ignoring the online flag (used by the
// offline-normal sweep, which must flush dirty buffers of a file that has
// just stopped accepting DML). It still fails on lost media.
func (d *Datafile) WriteBlockForce(p *sim.Proc, no int, b *Block) error {
	return d.writeBlock(p, no, b, true)
}

func (d *Datafile) writeBlock(p *sim.Proc, no int, b *Block, force bool) error {
	if err := d.available(); err != nil && !(force && errors.Is(err, ErrFileOffline)) {
		return err
	}
	if no < 0 || no >= len(d.blocks) {
		return fmt.Errorf("storage: block %d out of range in %s", no, d.Name)
	}
	if err := d.file.Write(p, int64(no)*BlockSize, BlockSize); err != nil {
		return err
	}
	// SCN guard: concurrent writers (eviction racing a checkpoint) may
	// try to install an older image after yielding; the durable image
	// only ever moves forward. Restores bypass this via InstallImages.
	if b.SCN >= d.blocks[no].SCN {
		d.blocks[no] = b
	}
	return nil
}

// PeekBlock returns the durable image without charging I/O, to be read
// (used by recovery bookkeeping and tests).
func (d *Datafile) PeekBlock(no int) *Block { return d.blocks[no] }

// EditBlock returns the durable image for a change in place, without
// charging I/O: an image someone else also holds (a backup, a cache buffer,
// a scan) is replaced by its clone first. Recovery's image steps use it.
func (d *Datafile) EditBlock(no int) *Block {
	if d.blocks[no].shared {
		d.blocks[no] = d.blocks[no].Clone()
	}
	return d.blocks[no]
}

// InstallImages replaces all durable images with the given ones (used by
// restore). The images are shared with the caller's set, not copied.
func (d *Datafile) InstallImages(images []*Block) {
	d.blocks = make([]*Block, len(images))
	for i, b := range images {
		d.blocks[i] = b.Share()
	}
}

// SnapshotImages returns all durable images as of now (used by backup).
// The images are shared with the datafile, not copied: later changes to the
// file land in clones and leave the snapshot what it was.
func (d *Datafile) SnapshotImages() []*Block {
	out := make([]*Block, len(d.blocks))
	for i, b := range d.blocks {
		out[i] = b.Share()
	}
	return out
}

// Tablespace is a logical storage area composed of one or more datafiles.
type Tablespace struct {
	Name   string
	Files  []*Datafile
	online bool
	system bool
}

// Online reports the tablespace's availability.
func (t *Tablespace) Online() bool { return t.online }

// SetOnline changes availability of the tablespace and all its files.
func (t *Tablespace) SetOnline(v bool) {
	t.online = v
	for _, f := range t.Files {
		f.online = v
	}
}

// System reports whether this is the SYSTEM tablespace (cannot be taken
// offline or dropped).
func (t *Tablespace) System() bool { return t.system }

// Lost reports whether any of the tablespace's files is lost.
func (t *Tablespace) Lost() bool {
	for _, f := range t.Files {
		if f.Lost() {
			return true
		}
	}
	return false
}

// ControlFile holds the database's vital metadata. Losing it is fatal for
// the instance.
type ControlFile struct {
	file *simdisk.File

	// CheckpointSCN is the SCN of the last completed checkpoint: crash
	// recovery replays redo from here.
	CheckpointSCN redo.SCN
	// UndoSCN is the undo low-watermark at the last checkpoint: the
	// first redo record of the oldest transaction then in flight.
	// Recovery scans from ScanStart(CheckpointSCN, UndoSCN).
	UndoSCN redo.SCN
	// StopSCN is set on clean shutdown; -1 means the database was not
	// shut down cleanly (crash recovery required at startup).
	StopSCN redo.SCN
}

// ScanStart is the recovery scan-start rule: redo is read from just past
// the checkpoint position (a control file's, or one datafile's), lowered
// to the undo low-watermark when transactions in flight at that
// checkpoint may have had uncommitted changes flushed — the scan must see
// their first record for the undo pass to roll them back. Recovery, the
// live recovery-time estimate and the chaos replay capture all start here.
func ScanStart(ckptSCN, undoSCN redo.SCN) redo.SCN {
	from := ckptSCN + 1
	if undoSCN > 0 && undoSCN < from {
		from = undoSCN
	}
	return from
}

// Update durably writes the control file (small sequential write).
func (c *ControlFile) Update(p *sim.Proc) error {
	if c.file.Deleted() || c.file.Corrupted() {
		return fmt.Errorf("%w: %s", ErrControlLost, c.file.Name())
	}
	return c.file.Write(p, 0, 16<<10)
}

// Lost reports whether the control file is gone.
func (c *ControlFile) Lost() bool { return c.file.Deleted() || c.file.Corrupted() }

// File returns the underlying simulated file.
func (c *ControlFile) File() *simdisk.File { return c.file }

// DB is the physical database: control file plus tablespaces on a
// simulated file system.
type DB struct {
	fs      *simdisk.FS
	Control *ControlFile
	tbs     map[string]*Tablespace
}

// NewDB creates the control file on the named disk and an empty database.
func NewDB(fs *simdisk.FS, controlDisk string) (*DB, error) {
	cf, err := fs.Create(controlDisk, "control.ctl", 16<<10)
	if err != nil {
		return nil, fmt.Errorf("storage: control file: %w", err)
	}
	return &DB{
		fs:      fs,
		Control: &ControlFile{file: cf, StopSCN: 0},
		tbs:     make(map[string]*Tablespace),
	}, nil
}

// FS returns the underlying file system.
func (db *DB) FS() *simdisk.FS { return db.fs }

// CreateTablespace creates a tablespace with one datafile per given disk,
// each of blocksPerFile blocks. The first tablespace created with name
// "SYSTEM" is marked as the system tablespace.
func (db *DB) CreateTablespace(name string, disks []string, blocksPerFile int) (*Tablespace, error) {
	if _, ok := db.tbs[name]; ok {
		return nil, fmt.Errorf("storage: tablespace %q exists", name)
	}
	t := &Tablespace{Name: name, online: true, system: name == "SYSTEM"}
	for i, disk := range disks {
		fname := fmt.Sprintf("%s_%02d.dbf", name, i+1)
		f, err := db.fs.Create(disk, fname, int64(blocksPerFile)*BlockSize)
		if err != nil {
			return nil, fmt.Errorf("storage: datafile: %w", err)
		}
		d := &Datafile{Name: fname, Tablespace: name, file: f, ts: t, online: true, shardHint: nameHash(fname)}
		d.blocks = make([]*Block, blocksPerFile)
		for j := range d.blocks {
			d.blocks[j] = NewBlock()
		}
		t.Files = append(t.Files, d)
	}
	db.tbs[name] = t
	return t, nil
}

// DropTablespace removes the tablespace and deletes its files.
func (db *DB) DropTablespace(name string) error {
	t, ok := db.tbs[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTbs, name)
	}
	if t.system {
		return fmt.Errorf("storage: cannot drop SYSTEM tablespace")
	}
	for _, f := range t.Files {
		if !f.file.Deleted() {
			if err := db.fs.Delete(f.file.Name()); err != nil {
				return err
			}
		}
	}
	// The dropped tablespace is unavailable until a restore reattaches
	// it; marking it offline lets DML routing fail fast with a
	// tablespace-level error instead of a lost-file one.
	t.SetOnline(false)
	delete(db.tbs, name)
	return nil
}

// ReattachTablespace re-registers a tablespace dropped earlier (used by
// point-in-time recovery, which restores the pre-drop physical layout).
func (db *DB) ReattachTablespace(t *Tablespace) error {
	if _, ok := db.tbs[t.Name]; ok {
		return fmt.Errorf("storage: tablespace %q exists", t.Name)
	}
	for _, f := range t.Files {
		if _, err := db.fs.Restore(f.file.Name(), f.SizeBytes()); err != nil {
			return fmt.Errorf("storage: reattach: %w", err)
		}
		f.online = true
	}
	t.online = true
	db.tbs[t.Name] = t
	return nil
}

// Tablespace returns the named tablespace.
func (db *DB) Tablespace(name string) (*Tablespace, error) {
	t, ok := db.tbs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTbs, name)
	}
	return t, nil
}

// Tablespaces returns all tablespaces sorted by name.
func (db *DB) Tablespaces() []*Tablespace {
	out := make([]*Tablespace, 0, len(db.tbs))
	for _, t := range db.tbs {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Datafile finds a datafile by name across all tablespaces.
func (db *DB) Datafile(name string) (*Datafile, error) {
	for _, t := range db.tbs {
		for _, f := range t.Files {
			if f.Name == name {
				return f, nil
			}
		}
	}
	return nil, fmt.Errorf("storage: unknown datafile %q", name)
}

// Datafiles returns all datafiles sorted by name.
func (db *DB) Datafiles() []*Datafile {
	var out []*Datafile
	for _, t := range db.Tablespaces() {
		out = append(out, t.Files...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// BlockRef identifies one block within the database.
type BlockRef struct {
	File *Datafile
	No   int
}

// String implements fmt.Stringer for diagnostics.
func (r BlockRef) String() string { return fmt.Sprintf("%s#%d", r.File.Name, r.No) }

// Route returns a stable 32-bit routing hash of the block's identity:
// the datafile's creation-time name hash mixed with the block number
// (Fibonacci hashing). It is the single routing function shared by the
// buffer cache (masked to a power-of-two shard count) and the parallel
// recovery pipeline (reduced modulo the worker count), so for a given
// fan-out a block always lands in exactly one place.
func (r BlockRef) Route() uint32 { return r.File.ShardHint() + uint32(r.No)*2654435761 }
