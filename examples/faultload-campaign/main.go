// Faultload campaign: inject each of the paper's six operator-fault types
// into the same configuration and summarise outcome per fault class —
// which recoveries are complete, how long they take, and what gets lost.
// It also prints the full operator-fault classification (paper Table 2).
package main

import (
	"fmt"
	"log"

	"dbench/internal/core"
	"dbench/internal/faults"
	"dbench/internal/tpcc"
)

func main() {
	fmt.Println("Operator fault classification (paper Table 2):")
	for _, class := range []faults.Class{
		faults.ClassMemoryProcesses, faults.ClassSecurity, faults.ClassStorage,
		faults.ClassObjects, faults.ClassRecoveryMechanisms,
	} {
		fmt.Printf("  %s:\n", class)
		for _, ti := range faults.ByClass(class) {
			mark := " "
			if ti.InFaultload {
				mark = "*"
			}
			fmt.Printf("   %s %-55s [%s]\n", mark, ti.Description, ti.Portability)
		}
	}
	fmt.Println("  (* = injected by this campaign)")
	fmt.Println()

	// Each run is a run key (core.Spec.Key); `dbench run '<key>'` makes any
	// one of them on its own.
	targets := map[faults.Kind]string{
		faults.DeleteDatafile:       ":TPCC_01.dbf",
		faults.SetDatafileOffline:   ":TPCC_01.dbf",
		faults.DeleteTablespace:     ":" + tpcc.Tablespace,
		faults.SetTablespaceOffline: ":" + tpcc.Tablespace,
		faults.DeleteUsersObject:    ":" + tpcc.TableStock,
	}
	fmt.Printf("%-24s %10s %10s %6s %6s %s\n", "fault", "recovery", "outage", "lost", "viol", "kind")
	for _, kind := range faults.Kinds {
		spec, err := core.ParseSpec("F10G3T1 arch W1 dur=8m fault=" + kind.Token() + targets[kind] + " at=3m tail=1m")
		if err != nil {
			log.Fatal(err)
		}
		res, err := core.Run(spec)
		if err != nil {
			log.Fatal(err)
		}
		kindStr := "complete"
		if !kind.CompleteRecovery() {
			kindStr = "incomplete"
		}
		fmt.Printf("%-24s %9.1fs %9.1fs %6d %6d %s\n",
			kind, res.RecoveryTime.Seconds(), res.UserOutage.Seconds(),
			res.LostTransactions, len(res.IntegrityViolations), kindStr)
	}
}
