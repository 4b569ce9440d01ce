// Command experiments regenerates the tables and figures of the RiskRoute
// paper's evaluation section. With no flags it runs everything at full
// scale; -run selects one experiment, -fast trades fidelity for speed.
//
//	experiments -run table2
//	experiments -run figure12 -storm Sandy
//	experiments -fast
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"

	"riskroute"
	"riskroute/internal/experiments"
)

func main() {
	run := flag.String("run", "all",
		"experiment to run: table1|table2|table3|figure1..figure13|extras|all")
	storm := flag.String("storm", "", "storm for figure12/figure13 (Irene, Katrina, Sandy); empty = all three")
	fast := flag.Bool("fast", false, "reduced-scale world (quicker, coarser)")
	blocks := flag.Int("blocks", 0, "census blocks (0 = default)")
	eventScale := flag.Float64("event-scale", 0, "disaster catalog scale (0 = default 1.0)")
	stride := flag.Int("stride", 0, "advisory stride for replays (0 = default 5)")
	seed := flag.Uint64("seed", 0, "world seed (0 = default 1)")
	workers := flag.Int("workers", 0,
		"max goroutines for parallel stages (0 = all cores, 1 = sequential); results are identical at any setting")
	logMode := flag.String("log", "off", "structured log stream to stderr: text, json, or off")
	traceOut := flag.String("trace-out", "", "write the run's trace as Chrome trace-event JSON to `file`")
	runsDir := flag.String("runs", "", "write a run manifest under `dir`/<runID>/")
	flag.Parse()

	cfg := riskroute.LabConfig{
		CensusBlocks: *blocks,
		EventScale:   *eventScale,
		ReplayStride: *stride,
		Seed:         *seed,
		Workers:      *workers,
	}
	if *fast {
		if cfg.CensusBlocks == 0 {
			cfg.CensusBlocks = 6000
		}
		if cfg.EventScale == 0 {
			cfg.EventScale = 0.1
		}
		if cfg.ReplayStride == 0 {
			cfg.ReplayStride = 10
		}
		cfg.MaxEventsPerCatalog = 4000
		cfg.CellMiles = 30
		cfg.CVCandidates = 10
		cfg.CVMaxEvents = 800
	}

	// Observability: any of -log/-trace-out/-runs arms the full stack so
	// the run's logs, trace, and manifest describe the same execution.
	obsArmed := *logMode != "off" || *traceOut != "" || *runsDir != ""
	var (
		trace  *riskroute.Span
		flight *riskroute.FlightRecorder
	)
	if obsArmed {
		cfg.Metrics = riskroute.NewMetrics()
		trace = riskroute.NewTrace("experiments")
		cfg.Trace = trace
		flight = riskroute.NewFlightRecorder(0)
		h, err := riskroute.NewLogHandler(*logMode, os.Stderr)
		if err != nil {
			fatal(err)
		}
		cfg.Logger = slog.New(flight.Wrap(h))
	}
	if *runsDir != "" {
		led, err := riskroute.NewRunLedger(*runsDir, "experiments", os.Args[1:])
		if err != nil {
			fatal(err)
		}
		led.AttachFlight(flight)
		led.SetConfig("run", *run)
		led.SetConfig("storm", *storm)
		led.SetConfig("fast", *fast)
		cfg.Ledger = led
	}
	// finish drains the observability stack exactly once, on every exit
	// path: Chrome trace export and the run manifest with exit status.
	finish := func(runErr error) {
		trace.End()
		if *traceOut != "" {
			if err := riskroute.ExportChromeTrace(*traceOut, trace); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: trace export:", err)
			} else {
				fmt.Fprintf(os.Stderr, "experiments: wrote trace to %s\n", *traceOut)
			}
		}
		if cfg.Ledger != nil {
			if err := cfg.Ledger.Finish(trace, cfg.Metrics, runErr); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: run ledger:", err)
			} else {
				fmt.Fprintf(os.Stderr, "experiments: wrote run manifest to %s/manifest.json\n",
					cfg.Ledger.Dir())
			}
		}
	}

	fmt.Fprintln(os.Stderr, "building experiment world...")
	lab, err := riskroute.NewLab(cfg)
	if err != nil {
		finish(err)
		fatal(err)
	}

	storms := []string{"Irene", "Katrina", "Sandy"}
	if *storm != "" {
		storms = []string{*storm}
	}

	runOne := func(id string) error {
		switch id {
		case "table1":
			r, err := lab.Table1()
			if err != nil {
				return err
			}
			return experiments.RenderTable1(os.Stdout, r)
		case "table2":
			r, err := lab.Table2()
			if err != nil {
				return err
			}
			return experiments.RenderTable2(os.Stdout, r)
		case "table3":
			r, err := lab.Table3()
			if err != nil {
				return err
			}
			return experiments.RenderTable3(os.Stdout, r)
		case "figure1":
			r, err := lab.Figure1()
			if err != nil {
				return err
			}
			return experiments.RenderFigure1(os.Stdout, r)
		case "figure2":
			r, err := lab.Figure2()
			if err != nil {
				return err
			}
			return experiments.RenderFigure2(os.Stdout, r)
		case "figure3":
			r, err := lab.Figure3()
			if err != nil {
				return err
			}
			return experiments.RenderFigure3(os.Stdout, r)
		case "figure4":
			r, err := lab.Figure4()
			if err != nil {
				return err
			}
			return experiments.RenderFigure4(os.Stdout, r)
		case "figure5":
			r, err := lab.Figure5()
			if err != nil {
				return err
			}
			return experiments.RenderFigure5(os.Stdout, r)
		case "figure6":
			r, err := lab.Figure6()
			if err != nil {
				return err
			}
			return experiments.RenderFigure6(os.Stdout, r)
		case "figure7":
			r, err := lab.Figure7()
			if err != nil {
				return err
			}
			return experiments.RenderFigure7(os.Stdout, r)
		case "figure8":
			r, err := lab.Figure8()
			if err != nil {
				return err
			}
			return experiments.RenderFigure8(os.Stdout, r)
		case "figure9":
			for _, name := range []string{"Level3", "AT&T", "Tinet"} {
				r, err := lab.Figure9(name, 10)
				if err != nil {
					return err
				}
				if err := experiments.RenderFigure9(os.Stdout, r); err != nil {
					return err
				}
				fmt.Println()
			}
			return nil
		case "figure10":
			r, err := lab.Figure10(8)
			if err != nil {
				return err
			}
			return experiments.RenderFigure10(os.Stdout, r)
		case "figure11":
			r, err := lab.Figure11()
			if err != nil {
				return err
			}
			return experiments.RenderFigure11(os.Stdout, r)
		case "figure12":
			for _, s := range storms {
				r, err := lab.Figure12(s)
				if err != nil {
					return err
				}
				if err := experiments.RenderReplay(os.Stdout, "Figure 12", r); err != nil {
					return err
				}
				fmt.Println()
			}
			return nil
		case "extras":
			r, err := lab.Extras()
			if err != nil {
				return err
			}
			return experiments.RenderExtras(os.Stdout, r)
		case "figure13":
			for _, s := range storms {
				r, err := lab.Figure13(s)
				if err != nil {
					return err
				}
				if err := experiments.RenderReplay(os.Stdout, "Figure 13", r); err != nil {
					return err
				}
				fmt.Println()
			}
			return nil
		default:
			return fmt.Errorf("unknown experiment %q", id)
		}
	}

	ids := []string{*run}
	if *run == "all" {
		ids = []string{
			"table1", "table2", "table3",
			"figure1", "figure2", "figure3", "figure4", "figure5", "figure6",
			"figure7", "figure8", "figure9", "figure10", "figure11",
			"figure12", "figure13", "extras",
		}
	}
	for _, id := range ids {
		fmt.Fprintf(os.Stderr, "running %s...\n", id)
		fmt.Printf("==== %s ====\n", strings.ToUpper(id))
		if err := runOne(id); err != nil {
			finish(err)
			fatal(err)
		}
		fmt.Println()
	}
	finish(nil)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
