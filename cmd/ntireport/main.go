// Command ntireport renders campaign JSONL artifacts into a
// deterministic Markdown report with embedded SVG plots: per-point
// statistics aggregated across seeds with 95% confidence intervals
// (Student-t and bootstrap), a Welch cross-point comparison, and one
// line/band/scatter chart per numeric sweep axis.
//
// Usage:
//
//	ntireport -in artifacts/             # every *.jsonl in the directory
//	ntireport -in artifacts/campaign-smoke.jsonl -out report.md
//
// Reports carry no wall-clock or environment metadata and all numeric
// formatting is fixed-precision, so the same artifacts always produce
// byte-identical output — main_test.go golden-gates the report of the
// committed 3-seed smoke campaign (regenerate with `make golden`).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"ntisim/internal/report"
	"ntisim/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command; it returns the exit code (2 for usage
// errors, 1 for failures).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ntireport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in        = fs.String("in", "", "JSONL artifact file, or a directory of *.jsonl artifacts (required)")
		out       = fs.String("out", "", "output Markdown file (default stdout)")
		bootstrap = fs.Int("bootstrap", 1000, "bootstrap resamples for CIs (negative disables)")
		converged = fs.Float64("converged-below", 5e-6, "precision threshold [s] defining convergence time on timeline artifacts")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *in == "" {
		fmt.Fprintln(stderr, "ntireport: -in is required (artifact file or directory)")
		fs.Usage()
		return 2
	}
	n, err := render(*in, *out, stdout, stats.Options{Bootstrap: *bootstrap, ConvergedBelowS: *converged})
	if err != nil {
		fmt.Fprintf(stderr, "ntireport: %v\n", err)
		return 1
	}
	if *out != "" {
		fmt.Fprintf(stderr, "ntireport: wrote %s (%d campaign(s))\n", *out, n)
	}
	return 0
}

// render writes the report of every artifact under in to the file out,
// or to stdout when out is empty, and returns the number of campaigns.
func render(in, out string, stdout io.Writer, opt stats.Options) (n int, err error) {
	var paths []string
	if fi, err := os.Stat(in); err != nil {
		return 0, err
	} else if fi.IsDir() {
		paths, err = report.FindJSONL(in)
		if err != nil {
			return 0, err
		}
		if len(paths) == 0 {
			return 0, fmt.Errorf("no *.jsonl artifacts in %s", in)
		}
	} else {
		paths = []string{in}
	}

	w := stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return 0, err
		}
		defer func() {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
		w = f
	}

	for i, p := range paths {
		results, err := report.LoadJSONL(p)
		if err != nil {
			return 0, err
		}
		if i > 0 {
			fmt.Fprintf(w, "\n---\n\n")
		}
		title := strings.TrimSuffix(filepath.Base(p), ".jsonl")
		if err := report.Generate(w, title, results, opt); err != nil {
			return 0, err
		}
	}
	return len(paths), nil
}
