// Package core implements the paper's contribution: the dependability
// benchmark for DBMS. It extends the TPC-C performance benchmark with a
// faultload of operator faults and recoverability measures (recovery
// time, lost transactions, integrity violations), and provides the
// experiment campaigns that regenerate every table and figure of the
// paper's evaluation (§5).
package core

import "time"

// RecoveryConfig is one row of the paper's Table 3: a recovery-mechanism
// configuration of the engine.
type RecoveryConfig struct {
	// Name follows the paper's scheme F<sizeMB>G<groups>T<timeoutMin>.
	Name string
	// FileSize is the online redo log file size.
	FileSize int64
	// Groups is the number of redo log groups.
	Groups int
	// CheckpointTimeout is log_checkpoint_timeout.
	CheckpointTimeout time.Duration
}

func (c RecoveryConfig) String() string { return c.Name }

// mkCfg builds a config named per the paper's scheme (its key).
func mkCfg(sizeMB, groups int, timeout time.Duration) RecoveryConfig {
	c := RecoveryConfig{FileSize: int64(sizeMB) << 20, Groups: groups, CheckpointTimeout: timeout}
	c.Name = c.key()
	return c
}

// Table3Configs reproduces the paper's Table 3 configuration set.
var Table3Configs = []RecoveryConfig{
	mkCfg(400, 3, 20*time.Minute),
	mkCfg(400, 3, 10*time.Minute),
	mkCfg(400, 3, 5*time.Minute),
	mkCfg(400, 3, 1*time.Minute),
	mkCfg(100, 3, 20*time.Minute),
	mkCfg(100, 3, 10*time.Minute),
	mkCfg(100, 3, 5*time.Minute),
	mkCfg(100, 3, 1*time.Minute),
	mkCfg(40, 3, 10*time.Minute),
	mkCfg(40, 3, 5*time.Minute),
	mkCfg(40, 3, 1*time.Minute),
	mkCfg(10, 3, 5*time.Minute),
	mkCfg(10, 3, 1*time.Minute),
	mkCfg(1, 6, 1*time.Minute),
	mkCfg(1, 3, 1*time.Minute),
	mkCfg(1, 2, 1*time.Minute),
}

// ConfigByName finds a Table 3 configuration.
func ConfigByName(name string) (RecoveryConfig, bool) {
	for _, c := range Table3Configs {
		if c.Name == name {
			return c, true
		}
	}
	return RecoveryConfig{}, false
}

// ArchiveConfigs are the configurations used for the archive-log
// experiments (the paper excludes the 400/100 MB files, whose archiving
// would not start within the experiment time).
func ArchiveConfigs() []RecoveryConfig {
	var out []RecoveryConfig
	for _, c := range Table3Configs {
		if c.FileSize <= 40<<20 {
			out = append(out, c)
		}
	}
	return out
}
