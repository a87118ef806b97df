package framework

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

// Main runs every given analyzer over the packages matching the
// command-line patterns (default "./..."), prints one line per diagnostic,
// and exits with status 1 if any diagnostics were reported, 2 on loading
// or analyzer failures, and 0 otherwise — the exit convention of go vet.
// It takes no flags; -h prints the usage, which lists the analyzers.
func Main(analyzers ...*Analyzer) {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: %s [packages]\n\nAnalyzers:\n", os.Args[0])
		for _, a := range analyzers {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-12s %s\n", a.Name, firstLine(a.Doc))
		}
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, err := Run(NewLoader(""), analyzers, patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lfcheck: %v\n", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
