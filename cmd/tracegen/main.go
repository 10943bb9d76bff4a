// Command tracegen runs an application under a policy on the simulated
// platform and writes the per-core thermal trace as CSV (time plus one
// column per core), suitable for plotting Fig. 1/4/5-style profiles.
//
// Usage:
//
//	tracegen -app tachyon -set 1 -policy proposed -o trace.csv
//	tracegen -scenario mpegdec-tachyon -policy linux-ondemand
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	appName := flag.String("app", "tachyon", "application: tachyon, mpeg_dec, mpeg_enc, face_rec, sphinx")
	scenario := flag.String("scenario", "", "inter-application scenario like mpegdec-tachyon (overrides -app)")
	dataSet := flag.Int("set", 1, "input data set (1-3)")
	policyName := flag.String("policy", "linux-ondemand", "policy: linux-ondemand, linux-powersave, linux-2.4GHz, linux-3.4GHz, ge-qiu, ge-qiu-modified, proposed")
	out := flag.String("o", "", "output CSV path (default stdout)")
	interval := flag.Float64("interval", 0.25, "trace sampling interval, seconds")
	spark := flag.Bool("spark", false, "print per-core sparklines and summaries to stderr")
	flag.Parse()

	if *dataSet < 1 || *dataSet > 3 {
		fatal(fmt.Errorf("data set must be 1-3, got %d", *dataSet))
	}
	ds := workload.DataSet(*dataSet - 1)

	var work workload.Workload
	if *scenario != "" {
		apps := make([]*workload.Application, 0, 3)
		for _, part := range strings.Split(*scenario, "-") {
			a, err := workload.ByName(part, ds)
			if err != nil {
				fatal(err)
			}
			apps = append(apps, a)
		}
		work = workload.NewSequence(apps...)
	} else {
		a, err := workload.ByName(*appName, ds)
		if err != nil {
			fatal(err)
		}
		work = a
	}

	pol, err := policy.New(*policyName, policy.Options{})
	if err != nil {
		fatal(err)
	}
	cfg := sim.DefaultRunConfig()
	cfg.RecordIntervalS = *interval
	res, err := sim.Run(cfg, work, pol)
	if err != nil {
		fatal(err)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := res.Trace.WriteCSV(w); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "tracegen: %s under %s: %.1f s simulated, avg %.1f C, peak %.1f C, cycling MTTF %.2f y, aging MTTF %.2f y\n",
		work.Name(), res.Policy, res.ExecTimeS, res.AvgTempC, res.PeakTempC, res.CyclingMTTF, res.AgingMTTF)
	if *spark {
		for i, s := range res.Trace.Cores {
			fmt.Fprintf(os.Stderr, "core%d %s\n      %v\n", i, trace.Summarize(s.Values), trace.Sparkline(s.Values, 80))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
