// Command benchjson converts `go test -bench` output into a JSON file so
// the performance trajectory of the hot kernels is machine-readable
// across PRs (see BENCH_synth.json and the Makefile bench target).
//
// Usage:
//
//	go test -bench=. -benchmem -run='^$' ./internal/... | benchjson -out BENCH_synth.json -section after
//	quest -corpus examples/circuits/corpus | benchjson -corpus -out BENCH_corpus.json -section overlap
//
// The file holds named sections; -section replaces one section and
// leaves the others untouched, so before/after snapshots of the same
// benchmarks can live side by side. With -corpus, stdin is `quest
// -corpus` output instead: the greppable `corpus <file> k=v ...` lines
// become per-circuit records (plus a "total" record per pass) in
// BENCH_corpus.json, so the staged-serial baseline and the batch
// driver can be compared machine-readably across PRs.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	var section sectionFlag
	out := flag.String("out", "BENCH_synth.json", "output JSON file (merged if it exists)")
	corpus := flag.Bool("corpus", false, "parse `quest -corpus` output instead of `go test -bench` output")
	flag.Var(&section, "section", "section name to (re)write in the output file (non-empty, at most once; default \"current\")")
	flag.Parse()

	if *corpus {
		results, err := parseCorpus(bufio.NewScanner(os.Stdin))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		if len(results) == 0 {
			fmt.Fprintln(os.Stderr, "benchjson: no corpus lines on stdin")
			os.Exit(1)
		}
		if err := writeCorpusSection(*out, section.Get(), results); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		fmt.Printf("benchjson: wrote %d corpus records to section %q of %s\n", len(results), section.Get(), *out)
		return
	}

	benches, err := parseBench(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(benches) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}

	doc := document{Sections: map[string][]benchResult{}}
	if raw, err := os.ReadFile(*out); err == nil {
		if err := json.Unmarshal(raw, &doc); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: existing %s is not valid: %v\n", *out, err)
			os.Exit(1)
		}
		if doc.Sections == nil {
			doc.Sections = map[string][]benchResult{}
		}
	}
	doc.GOOS, doc.GOARCH = runtime.GOOS, runtime.GOARCH
	doc.Sections[section.Get()] = benches

	enc, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(enc, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Printf("benchjson: wrote %d benchmarks to section %q of %s\n", len(benches), section.Get(), *out)
}
