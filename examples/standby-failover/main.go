// Stand-by failover: a primary and a stand-by server run side by side —
// a replication cluster of one in archive mode, each archived redo log
// shipped after its log switch. The primary crashes mid-run; the
// stand-by is promoted and takes the workload. The example prints the
// failover time (roughly constant, unlike media recovery) and the
// transactions lost in the unarchived online log — the trade-off the
// paper's §5.3 quantifies.
package main

import (
	"fmt"
	"log"
	"time"

	"dbench/internal/core"
	"dbench/internal/faults"
	"dbench/internal/standby"
)

func main() {
	for _, cfgName := range []string{"F1G3T1", "F10G3T1", "F40G3T1"} {
		cfg, _ := core.ConfigByName(cfgName)
		spec := core.DefaultSpec()
		spec.Name = "standby/" + cfgName
		spec.TPCC.Warehouses = 1
		spec.Duration = 8 * time.Minute
		spec.Recovery = cfg
		spec.Archive = true
		spec.Standbys, spec.ReplMode = 1, standby.ModeArchive
		spec.Fault = &faults.Fault{Kind: faults.ShutdownAbort}
		spec.InjectAt = 5 * time.Minute
		spec.TailAfterRecovery = time.Minute

		res, err := core.Run(spec)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s failover=%6.1fs  lost=%5d committed txns  violations=%d\n",
			cfgName, res.RecoveryTime.Seconds(), res.LostTransactions, len(res.IntegrityViolations))
	}
	fmt.Println("\nreading: failover time is nearly flat; lost work grows with the")
	fmt.Println("redo log file size, because a bigger current log holds more")
	fmt.Println("unarchived (unshipped) commits when the primary dies.")
}
