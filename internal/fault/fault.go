// Package fault is a deterministic fault-injection harness for the
// streaming pipeline. An *Injector holds a schedule of rules, each
// bound to a named site (a place in the pipeline that agreed to be
// breakable) and an integer key (usually the simulated day, or the run
// index in a sweep). The instrumented site calls Fire; a matching rule
// injects an error, a panic or a delay, and a non-matching call costs a
// handful of integer compares.
//
// Like internal/obs, the disabled state is a nil *Injector: every
// method is nil-safe, so call sites thread an injector through
// unconditionally and pay one nil-check when it is off. With the
// injector nil the pipeline is bit-identical to a build without the
// harness — no clock reads, no allocations, no extra branches beyond
// the nil-check.
//
// The package depends only on the standard library; the layering gate
// (scripts/fault_check.sh) holds it there and keeps the leaf compute
// packages from importing it — injection belongs to the orchestration
// layers (stream, feeds, experiments), never to a kernel.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Site names one injection point. The pipeline's agreed sites are the
// constants below; Fire on an unknown site is legal (it just never
// matches a rule built by ParseSpec's validation).
type Site string

// The named injection sites of the pipeline. Each is documented with
// the key its Fire calls carry.
const (
	// FeedRead fires in feeds.FeedSource.Next, keyed by the 0-based
	// index of the day being read (the trace feed's read cursor).
	FeedRead Site = "feed.read"
	// ProduceDay fires in a stream.SimSource producer worker, keyed by
	// the day being produced, after the day's backing store is drawn —
	// so an injected failure exercises the store-release path.
	ProduceDay Site = "stream.produce"
	// ShardTask fires inside every parallel shard task of
	// stream.Engine, keyed by the day being sharded.
	ShardTask Site = "stream.shard"
	// MergeDay fires at the start of stream.Engine's serial merge
	// stage, keyed by the day being merged.
	MergeDay Site = "stream.merge"
	// SweepRun fires at the start of each scenario run of
	// experiments.RunSweepParallelOpts (and as each rider attaches to
	// its host's day loop), keyed by the run's index in the sweep's
	// input order.
	SweepRun Site = "sweep.run"
)

// Sites lists every named injection site, in pipeline order; the chaos
// suite iterates it.
func Sites() []Site { return []Site{FeedRead, ProduceDay, ShardTask, MergeDay, SweepRun} }

// Kind is what a matching rule does.
type Kind uint8

const (
	// KindError makes Fire return an *Error.
	KindError Kind = iota
	// KindPanic makes Fire panic with a *PanicValue.
	KindPanic
	// KindDelay makes Fire sleep for the rule's Delay and keep going.
	KindDelay
)

func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindPanic:
		return "panic"
	case KindDelay:
		return "delay"
	default:
		return "kind(" + strconv.Itoa(int(k)) + ")"
	}
}

// Rule arms one injection. Key matches the Fire key exactly; a negative
// Key matches every key (useful for "fail the first thing that hits
// this site").
type Rule struct {
	Site  Site
	Kind  Kind
	Key   int64
	Delay time.Duration // KindDelay only; 0 means DefaultDelay
}

// DefaultDelay is the sleep of a KindDelay rule with no explicit
// duration — long enough to reorder goroutines, short enough for tests.
const DefaultDelay = 2 * time.Millisecond

// Error is the typed error an armed KindError rule injects. Sites
// propagate it unchanged, so callers can errors.As it back out of the
// pipeline's aggregated failure.
type Error struct {
	Site Site
	Key  int64
}

func (e *Error) Error() string {
	return fmt.Sprintf("fault: injected error at %s key %d", e.Site, e.Key)
}

// PanicValue is the value an armed KindPanic rule panics with. The
// pipeline's recover machinery wraps it in a *stream.WorkerPanic like
// any other panic; chaos tests unwrap it to assert the panic they
// planted is the one that surfaced.
type PanicValue struct {
	Site Site
	Key  int64
}

func (p *PanicValue) String() string {
	return fmt.Sprintf("fault: injected panic at %s key %d", p.Site, p.Key)
}

// Injector is an armed fault schedule. The zero value is not useful;
// build one with New, Schedule or ParseSpec. A nil *Injector is the
// disabled harness: Fire returns nil immediately.
//
// Injectors are safe for concurrent Fire from any number of
// goroutines; the rules are immutable after construction and the only
// mutable state is the per-rule fire counter.
type Injector struct {
	rules []Rule
	fired []atomic.Int64
}

// New arms the given rules.
func New(rules ...Rule) *Injector {
	return &Injector{rules: rules, fired: make([]atomic.Int64, len(rules))}
}

// Rules returns a copy of the armed schedule.
func (i *Injector) Rules() []Rule {
	if i == nil {
		return nil
	}
	out := make([]Rule, len(i.rules))
	copy(out, i.rules)
	return out
}

// Fire reports whether a rule matches (site, key) and injects its
// fault: KindError returns an *Error, KindPanic panics with a
// *PanicValue, KindDelay sleeps and continues matching (so a delay can
// be stacked under an error at the same site). A nil injector, or no
// matching rule, returns nil.
func (i *Injector) Fire(site Site, key int64) error {
	if i == nil {
		return nil
	}
	for r := range i.rules {
		rule := &i.rules[r]
		if rule.Site != site || (rule.Key >= 0 && rule.Key != key) {
			continue
		}
		i.fired[r].Add(1)
		switch rule.Kind {
		case KindDelay:
			d := rule.Delay
			if d <= 0 {
				d = DefaultDelay
			}
			time.Sleep(d)
		case KindPanic:
			panic(&PanicValue{Site: site, Key: key})
		default:
			return &Error{Site: site, Key: key}
		}
	}
	return nil
}

// Fired returns how many times rules at the given site have injected
// (delays included). Nil injector: 0.
func (i *Injector) Fired(site Site) int64 {
	if i == nil {
		return 0
	}
	var n int64
	for r := range i.rules {
		if i.rules[r].Site == site {
			n += i.fired[r].Load()
		}
	}
	return n
}

// Schedule builds a deterministic seed-keyed random schedule: n rules,
// each drawn uniformly over the given sites and kinds with a key in
// [0, maxKey). The same seed always yields the same schedule, so a
// failing chaos trial is reproducible from its logged seed alone.
func Schedule(seed uint64, sites []Site, kinds []Kind, maxKey int64, n int) *Injector {
	rng := rand.New(rand.NewSource(int64(seed)))
	rules := make([]Rule, 0, n)
	for len(rules) < n {
		rules = append(rules, Rule{
			Site: sites[rng.Intn(len(sites))],
			Kind: kinds[rng.Intn(len(kinds))],
			Key:  rng.Int63n(maxKey),
		})
	}
	return New(rules...)
}

// ParseSpec parses a command-line fault spec: comma-separated rules of
// the form site:kind:key[:delay], e.g.
//
//	stream.produce:panic:3
//	feed.read:error:2,stream.shard:delay:-1:20ms
//
// kind is error|panic|delay; key is the integer Fire key to match, or
// -1 for any; delay (delay rules only) is a Go duration. An empty spec
// returns a nil (disabled) injector.
func ParseSpec(spec string) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	known := map[Site]bool{}
	for _, s := range Sites() {
		known[s] = true
	}
	var rules []Rule
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) < 3 || len(fields) > 4 {
			return nil, fmt.Errorf("fault: bad rule %q: want site:kind:key[:delay]", part)
		}
		site := Site(fields[0])
		if !known[site] {
			return nil, fmt.Errorf("fault: unknown site %q (known: %v)", fields[0], Sites())
		}
		var kind Kind
		switch fields[1] {
		case "error":
			kind = KindError
		case "panic":
			kind = KindPanic
		case "delay":
			kind = KindDelay
		default:
			return nil, fmt.Errorf("fault: unknown kind %q in %q (want error|panic|delay)", fields[1], part)
		}
		key, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("fault: bad key in %q: %w", part, err)
		}
		rule := Rule{Site: site, Kind: kind, Key: key}
		if len(fields) == 4 {
			if kind != KindDelay {
				return nil, fmt.Errorf("fault: duration only applies to delay rules (got %q)", part)
			}
			d, err := time.ParseDuration(fields[3])
			if err != nil {
				return nil, fmt.Errorf("fault: bad delay in %q: %w", part, err)
			}
			rule.Delay = d
		}
		rules = append(rules, rule)
	}
	return New(rules...), nil
}

// IsInjected reports whether err (or anything it wraps) was planted by
// an injector — either directly as an *Error or carried inside a
// recovered *PanicValue rendered by the pipeline's panic wrapper.
func IsInjected(err error) bool {
	var fe *Error
	return errors.As(err, &fe)
}
