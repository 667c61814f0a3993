package engine

import (
	"fmt"
	"sort"
	"time"

	"dbench/internal/redo"
	"dbench/internal/sim"
	"dbench/internal/storage"
	"dbench/internal/txn"
)

// Administrative surface: the operations a DBA performs, and therefore the
// operations the operator-fault injector misuses. They mirror the Oracle
// commands named in the paper's Table 2.

// adminLatency is the fixed cost of processing an administrative command.
const adminLatency = 500 * time.Millisecond

// ddlLockTimeout bounds how long destructive DDL waits for in-flight
// writers on the target table to drain (Oracle's ddl_lock_timeout).
const ddlLockTimeout = 30 * time.Second

// CreateTablespace allocates a tablespace with one datafile per disk.
func (in *Instance) CreateTablespace(p *sim.Proc, name string, disks []string, blocksPerFile int) (*storage.Tablespace, error) {
	ts, err := in.db.CreateTablespace(name, disks, blocksPerFile)
	if err != nil {
		return nil, err
	}
	p.Sleep(adminLatency)
	return ts, nil
}

// CreateUser registers a database account.
func (in *Instance) CreateUser(p *sim.Proc, name, defaultTablespace string) error {
	_, err := in.cat.CreateUser(name, defaultTablespace)
	return err
}

// CreateTableClustered allocates a table segment whose rows are clustered
// in runs of `cluster` consecutive keys per block.
func (in *Instance) CreateTableClustered(p *sim.Proc, table, owner, tablespace string, numBlocks, cluster int) error {
	ts, err := in.db.Tablespace(tablespace)
	if err != nil {
		return err
	}
	_, err = in.cat.CreateTableClustered(table, owner, ts, numBlocks, cluster)
	return err
}

// CreateTablePartitioned allocates a warehouse-partitioned table: one
// segment of blocksPerPart blocks per named tablespace, partition i
// serving keys k with k/partDiv == i+1.
func (in *Instance) CreateTablePartitioned(p *sim.Proc, table, owner string, tablespaces []string, blocksPerPart, cluster int, partDiv int64) error {
	tss := make([]*storage.Tablespace, 0, len(tablespaces))
	for _, name := range tablespaces {
		ts, err := in.db.Tablespace(name)
		if err != nil {
			return err
		}
		tss = append(tss, ts)
	}
	_, err := in.cat.CreateTablePartitioned(table, owner, tss, blocksPerPart, cluster, partDiv)
	return err
}

// logDDL records a DDL operation in the redo stream and forces it to disk
// (DDL commits implicitly). payload, when non-nil, rides in the record's
// before-image slot: destructive DDL (DROP/TRUNCATE TABLE) logs the
// victim's logical descriptor there, so FLASHBACK TABLE can resurrect
// the catalog entry from the redo stream alone.
func (in *Instance) logDDL(p *sim.Proc, statement string, payload []byte) error {
	if err := in.log.Reserve(p, int64(256+len(statement)+len(payload))); err != nil {
		return err
	}
	scn := in.log.Append(redo.Record{Op: redo.OpDDL, Meta: statement, Before: payload})
	if err := in.log.WaitFlushed(p, scn); err != nil {
		return err
	}
	// The DDL is durable and in effect from this instant; stamp it so
	// observers (the fault injector) can timestamp the event atomically.
	in.lastDDLSCN = scn
	in.lastDDLAt = p.Now()
	return nil
}

// LogDDL is logDDL for other packages: the recovery manager logs the
// FLASHBACK TABLE marker through it.
func (in *Instance) LogDDL(p *sim.Proc, statement string, payload []byte) error {
	return in.logDDL(p, statement, payload)
}

// DropTable removes a table (DDL; implicitly committed). The segment's
// rows become unreachable immediately — this is the paper's "delete
// user's object" fault when executed by mistake.
func (in *Instance) DropTable(p *sim.Proc, table string) error {
	if in.state != StateOpen {
		return ErrInstanceDown
	}
	tbl, err := in.cat.Table(table)
	if err != nil {
		return err
	}
	// Take the table's exclusive DDL lock before logging the DROP
	// record: new DML fails fast while in-flight writers drain — each
	// either commits (its records predate the DROP record's SCN, so a
	// flashback keeps its rows) or rolls back (its rows are compensated
	// away). Without the drain, a transaction straddling the drop could
	// leave rows the flashback rewind strips (or orphans it resurrects)
	// while the transaction's writes to other tables survive — a
	// cross-table inconsistency.
	tbl.Quiescing = true
	deadline := p.Now().Add(ddlLockTimeout)
	for in.tm.ActiveWritersOn(table) > 0 {
		if p.Now() >= deadline {
			tbl.Quiescing = false
			return fmt.Errorf("engine: drop table %s: %d writer(s) still active after %v", table, in.tm.ActiveWritersOn(table), ddlLockTimeout)
		}
		p.Sleep(10 * time.Millisecond)
	}
	desc := redo.EncodeTableDescriptor(tbl.Descriptor())
	if err := in.logDDL(p, "DROP TABLE "+table, desc); err != nil {
		tbl.Quiescing = false
		return err
	}
	p.Sleep(adminLatency)
	return in.cat.DropTable(table)
}

// TruncateTable purges every row of a table (DDL; implicitly committed).
// Unlike Oracle's TRUNCATE, the purge is logged as per-row delete records
// carrying before-images — logical undo records — so the redo stream
// alone can rewind the table (FLASHBACK TABLE). The extra redo volume is
// the price of flashback-ability.
func (in *Instance) TruncateTable(p *sim.Proc, table string) error {
	if in.state != StateOpen {
		return ErrInstanceDown
	}
	tbl, err := in.cat.Table(table)
	if err != nil {
		return err
	}
	// The DDL marker (with the table's descriptor) goes first: the SCN
	// just below it is the table's last good state, which is what the
	// fault injector captures and flashback rewinds to.
	desc := redo.EncodeTableDescriptor(tbl.Descriptor())
	if err := in.logDDL(p, "TRUNCATE TABLE "+table, desc); err != nil {
		return err
	}
	var keys []int64
	if err := in.tm.Scan(p, table, func(key int64, _ []byte) bool {
		keys = append(keys, key)
		return true
	}); err != nil {
		return err
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	if _, err := in.Atomically(p, func(t *txn.Txn) error {
		for _, key := range keys {
			if err := in.tm.Delete(p, t, table, key); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return fmt.Errorf("engine: truncate %s: %w", table, err)
	}
	p.Sleep(adminLatency)
	return nil
}

// DropTablespace removes a tablespace including contents: all tables in it
// are dropped and its datafiles deleted.
func (in *Instance) DropTablespace(p *sim.Proc, name string) error {
	if in.state != StateOpen {
		return ErrInstanceDown
	}
	ts, err := in.db.Tablespace(name)
	if err != nil {
		return err
	}
	if ts.System() {
		return fmt.Errorf("engine: cannot drop SYSTEM tablespace")
	}
	if err := in.logDDL(p, "DROP TABLESPACE "+name+" INCLUDING CONTENTS", nil); err != nil {
		return err
	}
	// Only tables fully contained in the tablespace are dropped with it: a
	// partitioned table that merely has one partition here survives (its
	// other partitions live in other tablespaces), losing only this
	// tablespace's blocks until the tablespace is restored.
	for _, tbl := range in.cat.TablesFullyIn(name) {
		if err := in.cat.DropTable(tbl); err != nil {
			return err
		}
	}
	for _, f := range ts.Files {
		in.cache.InvalidateFile(f)
	}
	in.markTablespaceDown(name)
	p.Sleep(adminLatency)
	return in.db.DropTablespace(name)
}

// DropUser removes an account and cascades to its tables.
func (in *Instance) DropUser(p *sim.Proc, name string) error {
	if in.state != StateOpen {
		return ErrInstanceDown
	}
	if err := in.logDDL(p, "DROP USER "+name+" CASCADE", nil); err != nil {
		return err
	}
	_, err := in.cat.DropUser(name)
	return err
}

// OfflineDatafile takes one datafile offline immediately (ALTER DATABASE
// DATAFILE ... OFFLINE): no checkpoint is taken, so bringing it back
// online requires media recovery from the file's checkpoint SCN.
func (in *Instance) OfflineDatafile(p *sim.Proc, name string) error {
	if in.state != StateOpen {
		return ErrInstanceDown
	}
	f, err := in.db.Datafile(name)
	if err != nil {
		return err
	}
	in.cache.InvalidateFile(f)
	f.SetOnline(false)
	f.NeedsRecovery = true
	p.Sleep(adminLatency)
	return nil
}

// OnlineDatafile brings a recovered datafile back online. The file must
// have been caught up to the database checkpoint first (the recovery
// manager's RecoverDatafile does this); otherwise the command fails like
// Oracle's ORA-01113 "file needs media recovery".
func (in *Instance) OnlineDatafile(p *sim.Proc, name string) error {
	if in.state != StateOpen {
		return ErrInstanceDown
	}
	f, err := in.db.Datafile(name)
	if err != nil {
		return err
	}
	if f.Lost() {
		return fmt.Errorf("engine: datafile %q lost, restore it first", name)
	}
	if f.NeedsRecovery {
		return fmt.Errorf("engine: datafile %q needs media recovery (file ckpt %d, db ckpt %d)",
			name, f.CkptSCN, in.db.Control.CheckpointSCN)
	}
	f.SetOnline(true)
	p.Sleep(adminLatency)
	return nil
}

// OfflineTablespace takes a tablespace offline cleanly (ALTER TABLESPACE
// ... OFFLINE NORMAL): its dirty buffers are checkpointed first, so
// bringing it back online needs no recovery — the paper measures this
// fault's recovery at about a second.
func (in *Instance) OfflineTablespace(p *sim.Proc, name string) error {
	if in.state != StateOpen {
		return ErrInstanceDown
	}
	ts, err := in.db.Tablespace(name)
	if err != nil {
		return err
	}
	if ts.System() {
		return fmt.Errorf("engine: cannot offline SYSTEM tablespace")
	}
	// Offline NORMAL: stop DML on the files first, then flush their
	// remaining dirty buffers (a tablespace checkpoint) so no change —
	// committed or in flight — is lost; only then drop the buffers.
	// Doing the checkpoint before going offline would race concurrent
	// transactions and lose whatever they wrote after the snapshot.
	ts.SetOnline(false)
	in.markTablespaceDown(name)
	for _, f := range ts.Files {
		if err := in.cache.FlushFileForce(p, f); err != nil {
			ts.SetOnline(true)
			in.clearTablespaceDown(name)
			return err
		}
	}
	for _, f := range ts.Files {
		in.cache.InvalidateFile(f)
		f.CkptSCN = in.log.FlushedSCN()
	}
	p.Sleep(adminLatency)
	return nil
}

// OfflineTablespaceForRecovery takes a damaged tablespace offline so the
// rest of the database keeps serving while it is repaired: the reaction
// of the DBMS to a lost or force-offlined datafile. Damaged files keep
// their checkpoint SCN (media recovery must roll forward from there);
// intact sibling files are checkpointed cleanly like OFFLINE NORMAL so
// only the damaged files need redo.
func (in *Instance) OfflineTablespaceForRecovery(p *sim.Proc, name string) error {
	if in.state != StateOpen {
		return ErrInstanceDown
	}
	ts, err := in.db.Tablespace(name)
	if err != nil {
		return err
	}
	if ts.System() {
		return fmt.Errorf("engine: cannot offline SYSTEM tablespace")
	}
	ts.SetOnline(false)
	in.markTablespaceDown(name)
	for _, f := range ts.Files {
		if f.Lost() || f.NeedsRecovery {
			// Damaged: buffers are unflushable (or stale); recovery will
			// reconstruct the images from backup + redo.
			in.cache.InvalidateFile(f)
			f.NeedsRecovery = true
			continue
		}
		if err := in.cache.FlushFileForce(p, f); err != nil {
			return err
		}
		in.cache.InvalidateFile(f)
		f.CkptSCN = in.log.FlushedSCN()
	}
	p.Sleep(adminLatency)
	return nil
}

// OnlineTablespace brings a cleanly-offlined tablespace back.
func (in *Instance) OnlineTablespace(p *sim.Proc, name string) error {
	if in.state != StateOpen {
		return ErrInstanceDown
	}
	ts, err := in.db.Tablespace(name)
	if err != nil {
		return err
	}
	for _, f := range ts.Files {
		if f.Lost() {
			return fmt.Errorf("engine: tablespace %q datafile %q lost", name, f.Name)
		}
		if f.NeedsRecovery {
			return fmt.Errorf("engine: tablespace %q needs recovery", name)
		}
	}
	ts.SetOnline(true)
	in.clearTablespaceDown(name)
	p.Sleep(adminLatency)
	return nil
}

// ForceLogSwitch performs ALTER SYSTEM SWITCH LOGFILE.
func (in *Instance) ForceLogSwitch(p *sim.Proc) error {
	if in.state != StateOpen {
		return ErrInstanceDown
	}
	return in.log.ForceSwitch(p)
}
