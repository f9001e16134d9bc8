package mobsim

import (
	"testing"

	"repro/internal/timegrid"
)

// allocDays is the day cycle the steady-state allocation tests measure
// over: a weekday/weekend mix across February and the lockdown window,
// so every simulation branch (normal, away, relocated, night-off) is
// exercised.
var allocDays = []timegrid.SimDay{0, 5, 6, 30, 45, 60, 75, 90}

// TestDayIntoSteadyStateAllocs pins the tentpole guarantee: once a
// DayBuffer has warmed to the working size, DayInto performs no heap
// allocation. The pre-refactor per-day path allocated one dayBuilder,
// one Visits slice per agent and per-bin append churn — ~6 allocations
// per agent-day, millions per full run.
func TestDayIntoSteadyStateAllocs(t *testing.T) {
	s := fixture(t)
	buf := NewDayBuffer()
	// Warm the arena and scratch over the exact day cycle measured.
	for _, day := range allocDays {
		s.DayInto(buf, day)
	}
	i := 0
	allocs := testing.AllocsPerRun(len(allocDays)*3, func() {
		s.DayInto(buf, allocDays[i%len(allocDays)])
		i++
	})
	// Steady state must be allocation-free; any regression here puts an
	// allocation back into the innermost loop of the whole system.
	if allocs > 0 {
		t.Errorf("DayInto allocates %.1f times per day in steady state, want 0", allocs)
	}
}

// TestSimulatorNewAllocs pins New's cold cost to a fixed handful of
// allocations: the simulator, the per-tower reselection memo, homeAlt and
// the relocation tables, however many distinct home towers it resolves.
func TestSimulatorNewAllocs(t *testing.T) {
	s := fixture(t)
	allocs := testing.AllocsPerRun(3, func() {
		New(s.pop, s.scen, 1)
	})
	if allocs > 8 {
		t.Errorf("New allocates %.0f times, want <= 8", allocs)
	}
}

// TestDayIntoMatchesDay asserts a warm, reused buffer yields traces
// bit-identical to a fresh buffer's, day after day — at 2,500 users, where
// a day fits in one arena block, and at 8k, where it spans several and
// the warm buffer last held another day's block layout.
func TestDayIntoMatchesDay(t *testing.T) {
	for _, s := range []*Simulator{fixture(t), fixture8k(t)} {
		buf := NewDayBuffer()
		for _, day := range allocDays {
			freshBuf := NewDayBuffer()
			fresh := s.DayInto(freshBuf, day)
			reused := s.DayInto(buf, day)
			if s == fix8kSim && freshBuf.next < 3 {
				t.Fatalf("8k day %d fills %d blocks, want a multi-block day", day, freshBuf.next)
			}
			if len(fresh) != len(reused) {
				t.Fatalf("day %d: %d vs %d traces", day, len(fresh), len(reused))
			}
			for i := range fresh {
				if fresh[i].User != reused[i].User {
					t.Fatalf("day %d trace %d: user %d vs %d", day, i, fresh[i].User, reused[i].User)
				}
				if len(fresh[i].Visits) != len(reused[i].Visits) {
					t.Fatalf("day %d user %d: %d vs %d visits", day, fresh[i].User, len(fresh[i].Visits), len(reused[i].Visits))
				}
				for j := range fresh[i].Visits {
					if fresh[i].Visits[j] != reused[i].Visits[j] {
						t.Fatalf("day %d user %d visit %d: %+v vs %+v",
							day, fresh[i].User, j, fresh[i].Visits[j], reused[i].Visits[j])
					}
				}
			}
		}
	}
}
