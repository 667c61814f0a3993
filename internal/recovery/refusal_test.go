package recovery

import (
	"errors"
	"fmt"
	"testing"

	"dbench/internal/engine"
	"dbench/internal/sim"
)

// TestStateRefusalMatrix is the table of which command an instance accepts
// in which state: a command that needs an open instance fails with
// engine.ErrInstanceDown while it is down or mounted, one that needs it not
// open fails with engine.ErrInstanceOpen while it is open, and a refusal
// changes neither the state nor the virtual time. Crash stops a mounted or
// open instance and does nothing to a down one.
func TestStateRefusalMatrix(t *testing.T) {
	// up opens the rig's database and commits a row.
	up := func(p *sim.Proc, r *rig) error {
		if err := r.setup(p); err != nil {
			return err
		}
		return r.put(p, 1, "v")
	}
	states := []struct {
		name  string
		reach func(p *sim.Proc, r *rig) error
		want  engine.State
	}{
		{"down, fresh", func(p *sim.Proc, r *rig) error { return nil }, engine.StateDown},
		{"down, crashed", func(p *sim.Proc, r *rig) error {
			err := up(p, r)
			r.in.Crash()
			return err
		}, engine.StateDown},
		{"mounted", func(p *sim.Proc, r *rig) error {
			err := up(p, r)
			r.in.Crash()
			return errors.Join(err, r.in.Mount(p))
		}, engine.StateMounted},
		{"open", up, engine.StateOpen},
	}
	for _, st := range states {
		t.Run(st.name, func(t *testing.T) {
			r, err := newRig(false, 4<<20, 3)
			if err != nil {
				t.Fatal(err)
			}
			var events []engine.State
			r.run(t, func(p *sim.Proc) error {
				if err := st.reach(p, r); err != nil {
					return err
				}
				if got := r.in.State(); got != st.want {
					return fmt.Errorf("reached %v, want %v", got, st.want)
				}
				crashes := r.in.Stats().Crashes
				r.in.OnStateChange = func(_ sim.Time, s engine.State) { events = append(events, s) }
				open := st.want == engine.StateOpen

				// refused runs cmd and checks it fails with want, leaving
				// the state and the clock as they were.
				refused := func(name string, want error, cmd func() error) error {
					before := p.Now()
					if err := cmd(); !errors.Is(err, want) {
						return fmt.Errorf("%s: %v, want %v", name, err, want)
					}
					if r.in.State() != st.want || p.Now() != before {
						return fmt.Errorf("%s's refusal moved the instance to %v and the clock by %v", name, r.in.State(), p.Now().Sub(before))
					}
					return nil
				}
				needClosed := []struct {
					name string
					cmd  func() error
				}{
					{"Mount", func() error { return r.in.Mount(p) }},
					{"InstanceRecovery", func() error { _, err := r.rm.InstanceRecovery(p); return err }},
					{"Failover", func() error { _, err := r.rm.Failover(p, nil, nil, r.in.Log().FlushedSCN()); return err }},
				}
				needOpen := []struct {
					name string
					cmd  func() error
				}{
					{"Begin", func() error {
						tx, err := r.in.Begin()
						if err != nil {
							return err
						}
						return r.in.Commit(p, tx)
					}},
					{"Scan", func() error { return r.in.Scan(p, "acct", func(int64, []byte) bool { return true }) }},
					{"DropTable", func() error { return r.in.DropTable(p, "acct") }},
					{"OfflineTablespace", func() error { return r.in.OfflineTablespace(p, "USERS") }},
					{"SwitchLogfile", func() error { _, err := r.in.SwitchLogfile(p); return err }},
					{"AlterSystem", func() error { _, _, err := r.in.AlterSystem(p, "checkpoint_timeout", "45s"); return err }},
					{"Checkpoint", func() error { return r.in.Checkpoint(p) }},
					{"ShutdownImmediate", func() error { return r.in.ShutdownImmediate(p) }},
				}
				if open {
					for _, c := range needClosed {
						if err := refused(c.name, engine.ErrInstanceOpen, c.cmd); err != nil {
							return err
						}
					}
					for _, c := range needOpen {
						if err := c.cmd(); err != nil {
							return fmt.Errorf("%s on an open instance: %v", c.name, err)
						}
					}
					return nil
				}
				for _, c := range needOpen {
					if err := refused(c.name, engine.ErrInstanceDown, c.cmd); err != nil {
						return err
					}
				}
				if err := refused("FlashbackTable", engine.ErrInstanceDown, func() error {
					_, err := r.rm.FlashbackTable(p, "acct", 1)
					return err
				}); err != nil {
					return err
				}
				if err := refused("OnlineTablespaceRecovery", engine.ErrInstanceDown, func() error {
					_, err := r.rm.OnlineTablespaceRecovery(p, "USERS")
					return err
				}); err != nil {
					return err
				}
				r.in.Crash()
				stopped := int64(0)
				if st.want == engine.StateMounted {
					stopped = 1
				}
				if got := r.in.Stats().Crashes - crashes; got != stopped || r.in.State() != engine.StateDown || len(events) != int(stopped) {
					return fmt.Errorf("Crash: %d crashes counted, %d state changes seen, now %v; want %d, %d, down",
						got, len(events), r.in.State(), stopped, stopped)
				}
				return nil
			})
		})
	}
}
