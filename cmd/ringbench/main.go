// Command ringbench regenerates the paper's evaluation figures on the
// simulated testbed and writes them as text tables.
//
// Usage:
//
//	ringbench [-figure all|fig2|fig9|maxthroughput|...] [-quick] [-out results] [-seed 42]
//
// Each figure is written to <out>/<figure>.txt and echoed to stdout. The
// full sweep takes several minutes; -quick thins the sweeps for a fast
// smoke run.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"accelring/internal/bench"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ringbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ringbench", flag.ContinueOnError)
	figure := fs.String("figure", "all", "experiment to run (all, fig1..fig13, maxthroughput)")
	quick := fs.Bool("quick", false, "thin sweeps and shorten measurement windows")
	out := fs.String("out", "results", "output directory for table files")
	seed := fs.Int64("seed", 42, "deterministic seed for workloads and loss")
	verbose := fs.Bool("v", false, "print per-run progress")
	format := fs.String("format", "text", "output format: text or csv")
	list := fs.Bool("list", false, "list experiment IDs and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, id := range bench.FigureIDs() {
			fmt.Println(id)
		}
		return nil
	}
	if *format != "text" && *format != "csv" {
		return fmt.Errorf("unknown format %q", *format)
	}

	suite := &bench.Suite{Quick: *quick, Seed: *seed}
	if *verbose {
		suite.Progress = func(s string) { fmt.Fprintf(os.Stderr, "  run: %s\n", s) }
	}

	ids := []string{*figure}
	if *figure == "all" {
		ids = bench.FigureIDs()
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	for _, id := range ids {
		start := time.Now()
		tbl, err := suite.Figure(id)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		text := tbl.Format()
		ext := ".txt"
		if *format == "csv" {
			text = tbl.CSV()
			ext = ".csv"
		}
		fmt.Println(text)
		path := filepath.Join(*out, id+ext)
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%.1fs)\n", path, time.Since(start).Seconds())
	}
	return nil
}
