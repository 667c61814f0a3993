// Command faultinject runs one fault-injection experiment: TPC-C load and
// workload, one operator fault at the chosen instant, automatic recovery,
// and the paper's dependability measures.
//
// Usage:
//
//	faultinject [-fault shutdown|delete-datafile|delete-tablespace|
//	             offline-datafile|offline-tablespace|drop-table]
//	            [-config F40G3T5] [-at 300] [-minutes 12]
package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
	"time"

	"dbench/internal/core"
	"dbench/internal/faults"
	"dbench/internal/tpcc"
)

var faultNames = map[string]faults.Fault{
	"shutdown":           {Kind: faults.ShutdownAbort},
	"delete-datafile":    {Kind: faults.DeleteDatafile, Target: "TPCC_01.dbf"},
	"delete-tablespace":  {Kind: faults.DeleteTablespace, Target: tpcc.Tablespace},
	"offline-datafile":   {Kind: faults.SetDatafileOffline, Target: "TPCC_01.dbf"},
	"offline-tablespace": {Kind: faults.SetTablespaceOffline, Target: tpcc.Tablespace},
	"drop-table":         {Kind: faults.DeleteUsersObject, Target: tpcc.TableStock},
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("faultinject", flag.ContinueOnError)
	faultName := fs.String("fault", "shutdown", "fault type (see doc comment)")
	cfgName := fs.String("config", "F40G3T5", "recovery configuration")
	at := fs.Int("at", 300, "injection instant, seconds after workload start")
	minutes := fs.Int("minutes", 12, "experiment duration in simulated minutes")
	seed := fs.Int64("seed", 1, "simulation seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	f, ok := faultNames[*faultName]
	if !ok {
		valid := slices.Sorted(maps.Keys(faultNames))
		return fmt.Errorf("unknown fault %q (valid: %s)", *faultName, strings.Join(valid, ", "))
	}
	cfg, ok := core.ConfigByName(*cfgName)
	if !ok {
		return fmt.Errorf("unknown configuration %q", *cfgName)
	}
	spec := core.DefaultSpec()
	spec.Name = fmt.Sprintf("faultinject/%s/%s", *faultName, cfg.Name)
	spec.Seed = *seed
	spec.Recovery = cfg
	spec.Archive = true
	spec.Duration = time.Duration(*minutes) * time.Minute
	spec.TPCC.Warehouses = 1
	spec.Fault = &f
	spec.InjectAt = time.Duration(*at) * time.Second

	res, err := core.Run(spec)
	if err != nil {
		return err
	}
	o := res.Outcome
	fmt.Printf("fault:            %v\n", o.Fault)
	fmt.Printf("injected at:      %v (workload-relative %ds)\n", o.InjectedAt, *at)
	fmt.Printf("detected at:      %v (detection %v)\n", o.DetectedAt, spec.Detection)
	fmt.Printf("recovery time:    %v\n", res.RecoveryTime.Round(time.Millisecond))
	fmt.Printf("end-user outage:  %v\n", res.UserOutage.Round(time.Millisecond))
	if o.Report != nil {
		fmt.Printf("recovery kind:    %v (complete=%v)\n", o.Report.Kind, o.Report.Complete)
		fmt.Printf("records applied:  %d of %d scanned, %d archived logs, %d losers rolled back\n",
			o.Report.RecordsApplied, o.Report.RecordsScanned, o.Report.ArchivesProcessed, o.Report.LosersRolledBack)
	}
	fmt.Printf("lost commits:     %d\n", res.LostTransactions)
	fmt.Printf("integrity:        %d violations\n", len(res.IntegrityViolations))
	for i, v := range res.IntegrityViolations {
		if i >= 5 {
			fmt.Printf("  ... %d more\n", len(res.IntegrityViolations)-5)
			break
		}
		fmt.Printf("  %v\n", v)
	}
	return nil
}
