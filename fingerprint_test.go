package riskroute_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"strings"
	"testing"

	"riskroute"
)

// The behavioural fingerprint pins what the routing core computes over the
// whole built-in corpus: one SHA-256 per (network, section) over the raw
// IEEE-754 bits of every path, mile and cost the section produces. It is
// the safety net for refactors of the engine and the graph package: any
// change that moves a single bit of a route, a ratio or a candidate score
// fails here, naming the network and the section. Regenerate (only for an
// intended output change) with:
//
//	go test . -run Fingerprint -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/fingerprint")

const fingerprintPath = "testdata/fingerprint"

// fingerprintSmall is the PoP bound of the networks whose quadratic and
// per-pair alternative-path sections are fingerprinted too.
const fingerprintSmall = 40

// digest accumulates raw bits into a SHA-256.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) ints(vs ...int) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
		d.h.Write(b[:])
	}
}

func (d *digest) floats(vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		d.h.Write(b[:])
	}
}

// path writes the length first, so a nil path and an empty one differ from
// any path that happens to share a prefix with the next field.
func (d *digest) path(p []int) {
	d.ints(len(p))
	d.ints(p...)
}

func (d *digest) pair(r riskroute.PairResult) {
	d.path(r.Path)
	d.floats(r.Miles, r.BitRiskMiles)
}

func (d *digest) explanation(ex riskroute.Explanation) {
	d.ints(ex.From, ex.To)
	d.floats(ex.Alpha)
	d.path(ex.Path)
	d.ints(len(ex.Edges))
	for _, ed := range ex.Edges {
		d.ints(ed.From, ed.To)
		d.floats(ed.Miles, ed.BaseRisk, ed.ForecastRisk, ed.SpanRisk, ed.RiskCost, ed.Cost)
	}
	d.floats(ex.Miles, ex.BaseRisk, ex.ForecastRisk, ex.SpanRisk, ex.RiskCost, ex.Cost)
}

func (d *digest) ratios(r riskroute.Ratios) {
	d.floats(r.RiskReduction, r.DistanceIncrease)
	d.ints(r.Pairs)
}

func (d *digest) err(err error) {
	if err != nil {
		d.h.Write([]byte(err.Error()))
	}
	d.h.Write([]byte{0})
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// sandyPeak is the Sandy advisory `riskroute route -storm Sandy` picks: the
// first advisory with the highest maximum wind.
func sandyPeak(t *testing.T) *riskroute.Advisory {
	t.Helper()
	replay, err := riskroute.LoadHurricaneReplay(riskroute.HurricaneByName("Sandy"))
	if err != nil {
		t.Fatal(err)
	}
	best := replay.Advisories[0]
	for _, a := range replay.Advisories {
		if a.MaxWindMPH > best.MaxWindMPH {
			best = a
		}
	}
	return best
}

// fingerprintLines computes every "network<TAB>section<TAB>digest" line
// (network names contain spaces), in corpus order, at the CLI goldens'
// world: 4000 blocks, event-scale 0.03, seed 1.
func fingerprintLines(t *testing.T) []string {
	t.Helper()
	nets := riskroute.BuiltinNetworks()
	wd, err := riskroute.FitWorld(riskroute.WorldConfig{
		Networks: nets, Blocks: 4000, EventScale: 0.03, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	adv := sandyPeak(t)
	fm := riskroute.DefaultForecastModel()

	var lines []string
	for k, net := range nets {
		st := wd.Networks[k]
		engine := func(forecast []float64, workers int) *riskroute.Engine {
			ctx := &riskroute.Context{
				Net:       net,
				Hist:      st.Hist,
				Forecast:  forecast,
				Fractions: st.Assignment.Fractions,
				Params:    riskroute.PaperParams(),
			}
			e, err := riskroute.NewEngine(ctx, riskroute.Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s: NewEngine: %v", net.Name, err)
			}
			return e
		}
		add := func(section string, fill func(d *digest)) {
			d := newDigest()
			fill(d)
			lines = append(lines, net.Name+"\t"+section+"\t"+d.sum())
		}
		n := len(net.PoPs)
		pairs := func(e *riskroute.Engine) func(d *digest) {
			return func(d *digest) {
				for i := 0; i < n; i++ {
					for j := i + 1; j < n; j++ {
						d.pair(e.RiskRoutePair(i, j))
						d.pair(e.ShortestPair(i, j))
						d.explanation(e.Explain(i, j))
					}
				}
			}
		}
		plain := engine(nil, 0)
		add("pairs", pairs(plain))
		add("pairs-sandy", pairs(engine(fm.PoPRisks(adv, net), 0)))
		for _, w := range []int{1, 8} {
			e := engine(nil, w)
			add(fmt.Sprintf("sweeps-w%d", w), func(d *digest) {
				d.ratios(e.Evaluate())
				d.floats(e.TotalBitRisk())
			})
		}
		if n > fingerprintSmall {
			continue
		}
		add("exact", func(d *digest) { d.ratios(plain.EvaluateExact()) })
		add("candidates", func(d *digest) {
			for _, c := range plain.ScoreCandidates(plain.CandidateLinks()) {
				d.ints(c.Link.A, c.Link.B)
				d.floats(c.Total, c.DirectMiles, c.ShortestMiles)
			}
		})
		add("alternatives", func(d *digest) {
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					alts := plain.DiversePaths(i, j, 3)
					d.ints(len(alts))
					for _, r := range alts {
						d.pair(r)
					}
					sla, err := plain.SLAConstrainedPair(i, j, 0.25, 0)
					d.pair(sla)
					d.err(err)
					primary, backups, err := plain.FastReroutePlan(i, j)
					d.pair(primary)
					d.err(err)
					d.ints(len(backups))
					for _, b := range backups {
						d.ints(b.FailedLink.A, b.FailedLink.B)
						d.path(b.Path)
						d.floats(b.Miles, b.BitRiskMiles)
					}
				}
			}
		})
		add("forwarding", func(d *digest) {
			fib, err := plain.ForwardingTable(0)
			d.err(err)
			for _, f := range fib {
				d.ints(f.Dest, f.NextHop, f.Backup)
			}
		})
	}
	return lines
}

// TestBehaviouralFingerprint compares every section's digest with the
// checked-in corpus.
func TestBehaviouralFingerprint(t *testing.T) {
	got := fingerprintLines(t)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fingerprintPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(fingerprintPath)
	if err != nil {
		t.Fatalf("read fingerprint (run with -update-golden to create): %v", err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Split(sc.Text(), "\t")
		if len(fields) != 3 {
			t.Fatalf("malformed fingerprint line %q", sc.Text())
		}
		want[fields[0]+"\t"+fields[1]] = fields[2]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool, len(got))
	for _, line := range got {
		fields := strings.Split(line, "\t")
		key := fields[0] + "\t" + fields[1]
		seen[key] = true
		w, ok := want[key]
		switch {
		case !ok:
			t.Errorf("network %s section %s: not in %s", fields[0], fields[1], fingerprintPath)
		case w != fields[2]:
			t.Errorf("network %s section %s: digest %s, want %s", fields[0], fields[1], fields[2], w)
		}
	}
	for key := range want {
		if !seen[key] {
			f := strings.Split(key, "\t")
			t.Errorf("network %s section %s: in %s but no longer computed", f[0], f[1], fingerprintPath)
		}
	}
}
