// Command gpurel drives the reproduction: one subcommand per
// methodology of the paper (beam, fault injection, profiling), the study
// that combines them, and the static analyzer, SASS dumper and campaign
// daemon around them. Run it bare for the subcommand list and
// `gpurel <subcommand> -h` for a subcommand's flags.
//
// Exit status is 1 when a run fails (lint error findings and gate
// failures included) and 2 on a usage error: an unknown subcommand,
// device, code, tool, opt or gate, or a bad flag.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

// command is one subcommand: setup defines its flags and returns the
// action to run once they are parsed.
type command struct {
	name, summary string
	setup         func(f *cmdFlags) func() error
}

var commands = []command{
	{"repro", "regenerate every table and figure of the paper into -out", reproCmd},
	{"profile", "Table I and Figure 1 (plus residency telemetry and timelines)", profileCmd},
	{"beam", "simulated neutron-beam campaigns: Figure 3, Figure 5, or one code", beamCmd},
	{"inject", "SASSIFI/NVBitFI fault-injection campaigns: Figure 4", injectCmd},
	{"ablate", "prediction-model ablations, or the optimization-matrix sweep", ablateCmd},
	{"lint", "static analyzer lint gate, selftest, and the agreement gates", lintCmd},
	{"sassdump", "nvdisasm-style SASS dump of a workload's kernels", sassdumpCmd},
	{"serve", "the campaign daemon (HTTP/JSON)", serveCmd},
}

func main() { os.Exit(run(os.Args[1:], os.Stderr)) }

// run dispatches args to a subcommand and returns the exit status.
// Subcommands print their output to standard output and report errors
// to stderr.
func run(args []string, stderr io.Writer) int {
	if len(args) == 0 || args[0] == "-h" || args[0] == "-help" || args[0] == "help" {
		fmt.Fprintln(stderr, "usage: gpurel <subcommand> [flags]\n\nsubcommands:")
		for _, c := range commands {
			fmt.Fprintf(stderr, "  %-9s %s\n", c.name, c.summary)
		}
		if len(args) == 0 {
			return 2
		}
		return 0
	}
	cmd := lookup(args[0])
	if cmd == nil {
		fmt.Fprintf(stderr, "gpurel: unknown subcommand %q (run gpurel for the list)\n", args[0])
		return 2
	}
	f := newFlags(cmd.name, stderr)
	action := cmd.setup(f)
	err := f.parse(args[1:])
	if err == nil {
		err = action()
	}
	var status exitStatus
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &status):
		return int(status)
	}
	fmt.Fprintf(stderr, "gpurel %s: %v\n", cmd.name, err)
	if errors.As(err, new(usageError)) {
		return 2
	}
	return 1
}

func lookup(name string) *command {
	for i := range commands {
		if commands[i].name == name {
			return &commands[i]
		}
	}
	return nil
}

// usageError marks a bad invocation: exit status 2.
type usageError struct{ error }

// exitStatus ends a subcommand with a status and no further message:
// what went wrong is already on stderr.
type exitStatus int

func (s exitStatus) Error() string { return fmt.Sprintf("exit status %d", int(s)) }
