package main

import (
	"fmt"
	"strconv"
	"strings"

	"diesel/internal/client"
	"diesel/internal/server"
)

// runAdmin applies live retuning to every server in -servers. Unlike the
// job roster (shared through the metadata cluster), fair-gate weights and
// tenant quotas are per-server state, so the change is pushed to each
// address and any failure is reported against its server.
func runAdmin(servers []string, args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: admin set-weight <job> <weight> | admin set-quota <tenant> <qps> <bytes_per_sec>")
	}
	sub, rest := args[0], args[1:]

	apply := func(desc string, f func(addr string) error) error {
		var failed []string
		for _, addr := range servers {
			addr = strings.TrimSpace(addr)
			if err := f(addr); err != nil {
				failed = append(failed, fmt.Sprintf("%s: %v", addr, err))
				continue
			}
			fmt.Printf("%s: %s\n", addr, desc)
		}
		if len(failed) > 0 {
			return fmt.Errorf("%d/%d servers failed:\n  %s",
				len(failed), len(servers), strings.Join(failed, "\n  "))
		}
		return nil
	}

	switch sub {
	case "set-weight":
		if len(rest) != 2 {
			return fmt.Errorf("usage: admin set-weight <job> <weight>")
		}
		w, err := strconv.ParseFloat(rest[1], 64)
		if err != nil {
			return fmt.Errorf("bad weight %q: %w", rest[1], err)
		}
		return apply(fmt.Sprintf("job %q fair-share weight set to %g", rest[0], w),
			func(addr string) error {
				return client.AdminSetWeight(addr, rest[0], w)
			})

	case "set-quota":
		if len(rest) != 3 {
			return fmt.Errorf("usage: admin set-quota <tenant> <qps> <bytes_per_sec> (0 = unlimited)")
		}
		qps, err := strconv.ParseFloat(rest[1], 64)
		if err != nil {
			return fmt.Errorf("bad qps %q: %w", rest[1], err)
		}
		bps, err := strconv.ParseFloat(rest[2], 64)
		if err != nil {
			return fmt.Errorf("bad bytes_per_sec %q: %w", rest[2], err)
		}
		q := server.TenantQuota{QPS: qps, BytesPerSec: bps}
		return apply(fmt.Sprintf("tenant %q quota set to %g qps, %g B/s", rest[0], qps, bps),
			func(addr string) error {
				return client.AdminSetQuota(addr, rest[0], q)
			})

	default:
		return fmt.Errorf("unknown admin subcommand %q (want set-weight or set-quota)", sub)
	}
}
