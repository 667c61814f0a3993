package recovery

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"
)

// The differential proves the recovered *state* is the same at every
// worker count and leaves recovery *time* free. This table pins it: the
// whole recovery's virtual duration and the offset at which its undo
// phase opened, for every differential scenario at 1, 2 and 4 workers.
// The values were computed on the commit before the serial loops were
// folded into the pass, so they also hold that fold to "nothing moves":
// at one worker the coordinator applies inline, reads the whole stream
// before it applies any of it, and carries its sub-chunk CPU remainder
// into the undo phase — change any of the three and these numbers move.
// Re-pin only for a deliberate change to the recovery cost model.
// Nanoseconds, at workers = 1, 2, 4.
var pinnedVirtualTime = map[string][3]struct{ total, undoAt time.Duration }{
	"instance/W1":   {{12613363235, 12120791985}, {12371430735, 12100139485}, {12359660735, 12088369485}},
	"instance/W4":   {{13292091395, 12110816395}, {12809255145, 12102676395}, {12788905145, 12082326395}},
	"media/W1":      {{94728781740, 94042361740}, {86435331740, 85775394240}, {86435331740, 85775394240}},
	"media/W4":      {{26875528154, 26320674404}, {26786098154, 26250741904}, {26786098154, 26250741904}},
	"pit/W1":        {{109166861532, 108808554032}, {94445353416, 94265853416}, {94373193416, 94193693416}},
	"pit/W4":        {{43239420446, 41926645446}, {38484289915, 37808421165}, {38403975446, 37736116071}},
	"tablespace/W1": {{94728781740, 94042361740}, {86435331740, 85775394240}, {86435331740, 85775394240}},
	"tablespace/W4": {{28124065654, 27295908154}, {27185435654, 26374960654}, {27185435654, 26374960654}},
}

func TestRecoveryVirtualTimePinned(t *testing.T) {
	for _, kind := range []string{"instance", "media", "pit", "tablespace"} {
		for _, w := range []int{1, 4} {
			name := fmt.Sprintf("%s/W%d", kind, w)
			t.Run(name, func(t *testing.T) {
				for i, workers := range []int{1, 2, 4} {
					r := differentialRun(t, kind, w, workers)
					var undoAt time.Duration
					for _, ph := range r.rep.Phases {
						if ph.Name == PhaseUndoRollback {
							undoAt = ph.Start.Sub(r.rep.Started)
						}
					}
					want := pinnedVirtualTime[name][i]
					if got := r.rep.Duration(); got != want.total || undoAt != want.undoAt {
						t.Errorf("workers=%d: recovery took %d ns with undo opening at +%d ns, pinned %d / +%d",
							workers, got, undoAt, want.total, want.undoAt)
					}
					// One worker means one process: the coordinator applies
					// and writes everything itself. More workers must show up
					// as a crew (which also proves the watch sees them).
					var crew []string
					for proc := range r.crew {
						crew = append(crew, proc)
					}
					sort.Strings(crew)
					if workers == 1 && len(crew) > 0 {
						t.Errorf("workers=1 started recovery worker processes: %v", crew)
					}
					if workers > 1 && !strings.Contains(strings.Join(crew, " "), "recovery-apply-") {
						t.Errorf("workers=%d: no apply crew seen (watch saw %v)", workers, crew)
					}
				}
			})
		}
	}
}
