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
	"path/filepath"
	"regexp"
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
//
// A mismatching section's canonical records — one text line per field
// group, floats in shortest round-trip form, each pair labelled — are
// written to a file named in the failure. Dump the same section from a
// known-good checkout with -fingerprint-dump and diff the two files: the
// first differing line names the pair and field that moved.
var (
	updateGolden    = flag.Bool("update-golden", false, "rewrite testdata/fingerprint")
	fingerprintDump = flag.String("fingerprint-dump", "",
		"also dump the records of every section whose \"network/section\" matches this regexp")
)

const fingerprintPath = "testdata/fingerprint"

// fingerprintSmall is the PoP bound of the networks whose quadratic and
// per-pair alternative-path sections are fingerprinted too.
const fingerprintSmall = 40

// digest accumulates raw bits into a SHA-256 and, while a section is being
// dumped, writes the same fields as text records.
type digest struct {
	h       hash.Hash
	rec     *bufio.Writer // nil unless dumping
	records int
}

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) ints(vs ...int) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
		d.h.Write(b[:])
	}
	if d.rec != nil {
		d.record("ints", vs)
	}
}

func (d *digest) floats(vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		d.h.Write(b[:])
	}
	if d.rec != nil {
		d.record("floats", vs)
	}
}

// record writes one canonical record (%v prints floats in shortest
// round-trip form, so equal text means equal bits). Callers check d.rec
// first: boxing vals allocates.
func (d *digest) record(kind string, vals any) {
	fmt.Fprintln(d.rec, kind, vals)
	d.records++
}

// at labels the records that follow with the pair they belong to; labels
// are not hashed.
func (d *digest) at(i, j int) {
	if d.rec != nil {
		fmt.Fprintf(d.rec, "pair %d %d\n", i, j)
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
	if d.rec != nil {
		d.record("err", err)
	}
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

// fpSection is one fingerprinted (network, section): fill feeds its fields
// to a digest, deterministically, so it can be re-run to dump them.
type fpSection struct {
	network, name string
	fill          func(d *digest)
}

// dump re-runs the section with records on, into dir, and returns the file
// and the record count.
func (s fpSection) dump(t *testing.T, dir string) (string, int) {
	t.Helper()
	path := filepath.Join(dir, strings.NewReplacer(" ", "_", "/", "_").Replace(s.network+"-"+s.name)+".txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	d := newDigest()
	d.rec = bufio.NewWriter(f)
	s.fill(d)
	if err := d.rec.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, d.records
}

// fingerprintSections lists every (network, section), in corpus order, at
// the CLI goldens' world: 4000 blocks, event-scale 0.03, seed 1.
func fingerprintSections(t *testing.T) []fpSection {
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

	var sections []fpSection
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
			sections = append(sections, fpSection{network: net.Name, name: section, fill: fill})
		}
		n := len(net.PoPs)
		pairs := func(e *riskroute.Engine) func(d *digest) {
			return func(d *digest) {
				for i := 0; i < n; i++ {
					for j := i + 1; j < n; j++ {
						d.at(i, j)
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
					d.at(i, j)
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
	return sections
}

// TestBehaviouralFingerprint compares every section's digest with the
// checked-in corpus.
func TestBehaviouralFingerprint(t *testing.T) {
	var dumpRE *regexp.Regexp
	if *fingerprintDump != "" {
		var err error
		if dumpRE, err = regexp.Compile(*fingerprintDump); err != nil {
			t.Fatalf("-fingerprint-dump: %v", err)
		}
	}
	sections := fingerprintSections(t)
	got := make([]string, len(sections))
	for k, s := range sections {
		d := newDigest()
		s.fill(d)
		got[k] = d.sum()
	}
	if *updateGolden {
		lines := make([]string, len(sections))
		for k, s := range sections {
			lines[k] = s.network + "\t" + s.name + "\t" + got[k]
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fingerprintPath, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
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
	// The dump directory outlives the test (t.TempDir would be removed
	// with it), so the records can be diffed afterwards.
	var dumpDir string
	dump := func(s fpSection) string {
		if dumpDir == "" {
			if dumpDir, err = os.MkdirTemp("", "fingerprint-"); err != nil {
				t.Fatal(err)
			}
		}
		path, records := s.dump(t, dumpDir)
		return fmt.Sprintf("%d records in %s", records, path)
	}
	seen := make(map[string]bool, len(sections))
	for k, s := range sections {
		key := s.network + "\t" + s.name
		seen[key] = true
		w, ok := want[key]
		switch {
		case !ok:
			t.Errorf("network %s section %s: not in %s", s.network, s.name, fingerprintPath)
		case w != got[k]:
			t.Errorf("network %s section %s: digest %s, want %s; %s (diff against "+
				"go test . -run Fingerprint -fingerprint-dump '^%s$' in a known-good checkout)",
				s.network, s.name, got[k], w, dump(s), regexp.QuoteMeta(s.network+"/"+s.name))
		case dumpRE != nil && dumpRE.MatchString(s.network+"/"+s.name):
			t.Logf("network %s section %s: %s", s.network, s.name, dump(s))
		}
	}
	for key := range want {
		if !seen[key] {
			f := strings.Split(key, "\t")
			t.Errorf("network %s section %s: in %s but no longer computed", f[0], f[1], fingerprintPath)
		}
	}
}
