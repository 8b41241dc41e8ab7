// Command xmlac-bench regenerates the tables and figures of the paper's
// evaluation section (section 7) using the experiment harness of
// internal/experiments, printing one text table per experiment.
//
// Usage:
//
//	xmlac-bench -all -scale 0.1
//	xmlac-bench -figure 9
//	xmlac-bench -table 2
package main

import (
	"flag"
	"fmt"
	"os"

	"xmlac/internal/experiments"
	"xmlac/internal/soe"
)

func main() {
	all := flag.Bool("all", false, "run every table and figure")
	table := flag.Int("table", 0, "run one table (1 or 2)")
	figure := flag.Int("figure", 0, "run one figure (8, 9, 10, 11 or 12)")
	scale := flag.Float64("scale", 0.05, "dataset scale factor (1.0 approximates the paper's sizes)")
	profile := flag.String("profile", "hardware", "cost profile: hardware, software-internet or software-lan")
	flag.Parse()

	cfg := experiments.DefaultConfig()
	cfg.Scale = *scale
	switch *profile {
	case "hardware":
		cfg.Profile = soe.HardwareSmartCard()
	case "software-internet":
		cfg.Profile = soe.SoftwareInternet()
	case "software-lan":
		cfg.Profile = soe.SoftwareLAN()
	default:
		fmt.Fprintf(os.Stderr, "xmlac-bench: unknown profile %q\n", *profile)
		os.Exit(2)
	}

	if !*all && *table == 0 && *figure == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(cfg, *all, *table, *figure); err != nil {
		fmt.Fprintln(os.Stderr, "xmlac-bench:", err)
		os.Exit(1)
	}
}

func run(cfg experiments.Config, all bool, table, figure int) error {
	want := func(t, f int) bool {
		return all || (table != 0 && table == t) || (figure != 0 && figure == f)
	}
	if want(1, 0) {
		fmt.Println(experiments.Table1().Render())
	}
	if want(2, 0) {
		fmt.Println(experiments.Table2(cfg).Render())
	}
	if want(0, 8) {
		fmt.Println(experiments.Figure8(cfg).Render())
	}
	if want(0, 9) {
		res, err := experiments.Figure9(cfg)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	}
	if want(0, 10) {
		res, err := experiments.Figure10(cfg)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	}
	if want(0, 11) {
		res, err := experiments.Figure11(cfg)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	}
	if want(0, 12) {
		res, err := experiments.Figure12(cfg)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	}
	return nil
}
