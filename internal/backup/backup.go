// Package backup implements full database backups and restore: the
// starting point of every media recovery in the paper's experiments.
//
// A full backup snapshots every datafile's durable images plus the data
// dictionary at a known SCN. Restores charge the full file sizes to the
// simulated disks, which is why the paper's incomplete recoveries (Table
// 4) take minutes: they always begin by re-copying the database.
package backup

import (
	"errors"
	"fmt"

	"dbench/internal/catalog"
	"dbench/internal/redo"
	"dbench/internal/sim"
	"dbench/internal/simdisk"
	"dbench/internal/storage"
)

// ErrNoBackup reports that no usable backup exists.
var ErrNoBackup = errors.New("backup: no backup available")

// fileBackup is the saved state of one datafile.
type fileBackup struct {
	datafile *storage.Datafile
	images   []*storage.Block
	size     int64
	copy     *simdisk.File
}

// tsBackup remembers a tablespace's structure so PITR can reattach it
// after a DROP TABLESPACE.
type tsBackup struct {
	ts *storage.Tablespace
}

// Backup is one full database backup.
type Backup struct {
	// ID numbers backups per manager.
	ID int
	// SCN is the backup checkpoint SCN: all file images contain exactly
	// the changes up to it; recovery applies redo from SCN+1.
	SCN redo.SCN
	// TakenAt is the virtual time the backup completed.
	TakenAt sim.Time

	files       map[string]*fileBackup
	tablespaces []tsBackup
	dict        *catalog.Catalog
}

// Manager takes and restores full backups.
type Manager struct {
	k    *sim.Kernel
	fs   *simdisk.FS
	disk string

	backups []*Backup
}

// NewManager returns a backup manager writing to the named disk.
func NewManager(k *sim.Kernel, fs *simdisk.FS, disk string) *Manager {
	return &Manager{k: k, fs: fs, disk: disk}
}

// Latest returns the most recent backup, or ErrNoBackup.
func (m *Manager) Latest() (*Backup, error) {
	if len(m.backups) == 0 {
		return nil, ErrNoBackup
	}
	return m.backups[len(m.backups)-1], nil
}

// TakeFull copies every datafile to the backup destination and snapshots
// the dictionary. Callers must have checkpointed immediately before so
// that scn covers the durable images (the engine's Checkpoint does this);
// scn is typically the control file's checkpoint SCN.
func (m *Manager) TakeFull(p *sim.Proc, db *storage.DB, dict *catalog.Catalog, scn redo.SCN) (*Backup, error) {
	b := &Backup{
		ID:    len(m.backups) + 1,
		SCN:   scn,
		files: make(map[string]*fileBackup),
		dict:  dict.Snapshot(),
	}
	for _, ts := range db.Tablespaces() {
		b.tablespaces = append(b.tablespaces, tsBackup{ts: ts})
		for _, f := range ts.Files {
			if f.Lost() {
				return nil, fmt.Errorf("backup: datafile %q lost", f.Name)
			}
			name := fmt.Sprintf("backup_%02d_%s", b.ID, f.Name)
			cp, err := m.fs.Create(m.disk, name, 0)
			if err != nil {
				return nil, fmt.Errorf("backup: %w", err)
			}
			// Charge a full sequential copy: read the datafile,
			// write the backup piece.
			if err := f.File().Read(p, 0, f.SizeBytes()); err != nil {
				return nil, fmt.Errorf("backup: read %s: %w", f.Name, err)
			}
			if err := cp.Append(p, f.SizeBytes()); err != nil {
				return nil, fmt.Errorf("backup: write %s: %w", name, err)
			}
			b.files[f.Name] = &fileBackup{
				datafile: f,
				images:   f.SnapshotImages(),
				size:     f.SizeBytes(),
				copy:     cp,
			}
		}
	}
	b.TakenAt = p.Now()
	m.backups = append(m.backups, b)
	return b, nil
}

// HasFile reports whether the backup contains the named datafile.
func (b *Backup) HasFile(name string) bool {
	_, ok := b.files[name]
	return ok
}

// RestoreDatafile re-creates one datafile from the backup: the simulated
// file is revived, the backup piece is copied back (charged), and the
// durable images are reset to the backup's state. The file is left
// offline with NeedsRecovery set; media recovery must roll it forward.
func (b *Backup) RestoreDatafile(p *sim.Proc, fs *simdisk.FS, name string) error {
	fb, ok := b.files[name]
	if !ok {
		return fmt.Errorf("%w: datafile %q not in backup %d", ErrNoBackup, name, b.ID)
	}
	if fb.copy.Deleted() || fb.copy.Corrupted() {
		return fmt.Errorf("backup: piece for %q lost", name)
	}
	if err := fb.copy.Read(p, 0, fb.size); err != nil {
		return fmt.Errorf("backup: read piece: %w", err)
	}
	f, err := fs.Restore(fb.datafile.File().Name(), fb.size)
	if err != nil {
		return fmt.Errorf("backup: restore file: %w", err)
	}
	if err := f.Write(p, 0, fb.size); err != nil {
		return fmt.Errorf("backup: write file: %w", err)
	}
	fb.datafile.InstallImages(fb.images)
	fb.datafile.SetOnline(false)
	fb.datafile.NeedsRecovery = true
	fb.datafile.CkptSCN = b.SCN
	fb.datafile.UndoSCN = b.SCN + 1
	return nil
}

// RestoreTablespace re-creates one tablespace from the backup: the
// tablespace is reattached if it was dropped (the dictionary is NOT
// touched — online tablespace recovery repairs physical storage under a
// live catalog), and every one of its datafiles is restored. The files
// are left offline with NeedsRecovery set; media recovery rolls them
// forward.
func (b *Backup) RestoreTablespace(p *sim.Proc, fs *simdisk.FS, db *storage.DB, name string) error {
	var ts *storage.Tablespace
	for _, tb := range b.tablespaces {
		if tb.ts.Name == name {
			ts = tb.ts
			break
		}
	}
	if ts == nil {
		return fmt.Errorf("%w: tablespace %q not in backup %d", ErrNoBackup, name, b.ID)
	}
	if _, err := db.Tablespace(name); err != nil {
		if err := db.ReattachTablespace(ts); err != nil {
			return fmt.Errorf("backup: reattach %q: %w", name, err)
		}
	}
	for _, f := range ts.Files {
		if !b.HasFile(f.Name) {
			continue // file created after the backup; left as-is
		}
		if err := b.RestoreDatafile(p, fs, f.Name); err != nil {
			return err
		}
	}
	return nil
}

// RestoreAllWorkers restores the entire database — every tablespace in
// the backup is reattached if it was dropped, every datafile is restored,
// and the dictionary is reset to the backup snapshot — with the
// per-datafile restores fanned out across `workers` concurrent processes
// (point-in-time recovery's restore phase, at the recovery fan-out).
// Datafiles are assigned round-robin in the deterministic
// tablespace/file order; with workers <= 1 everything runs inline on p.
// Restored state is identical either way — only the I/O overlap differs.
func (b *Backup) RestoreAllWorkers(p *sim.Proc, fs *simdisk.FS, db *storage.DB, dict *catalog.Catalog, workers int) error {
	for _, tb := range b.tablespaces {
		if _, err := db.Tablespace(tb.ts.Name); err != nil {
			if err := db.ReattachTablespace(tb.ts); err != nil {
				return fmt.Errorf("backup: reattach %q: %w", tb.ts.Name, err)
			}
		}
	}
	var names []string
	for _, ts := range db.Tablespaces() {
		for _, f := range ts.Files {
			if !b.HasFile(f.Name) {
				continue // file created after the backup; left as-is
			}
			names = append(names, f.Name)
		}
	}
	if workers <= 1 {
		for _, name := range names {
			if err := b.RestoreDatafile(p, fs, name); err != nil {
				return err
			}
		}
	} else {
		parts := make([][]string, workers)
		for i, name := range names {
			parts[i%workers] = append(parts[i%workers], name)
		}
		k := p.Kernel()
		var wg sim.WaitGroup
		var firstErr error
		for i, part := range parts {
			if len(part) == 0 {
				continue
			}
			part := part
			wg.Add(1)
			k.Go(fmt.Sprintf("restore-%d", i), func(wp *sim.Proc) {
				defer wg.Done(wp.Kernel())
				for _, name := range part {
					if err := b.RestoreDatafile(wp, fs, name); err != nil {
						if firstErr == nil {
							firstErr = err
						}
						return
					}
				}
			})
		}
		wg.Wait(p)
		if firstErr != nil {
			return firstErr
		}
	}
	dict.Restore(b.dict)
	return nil
}
