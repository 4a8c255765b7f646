//! Typed command line: every argument is parsed into a checked value, and a
//! missing argument, unknown workload or malformed number is an error (the
//! caller prints usage and exits non-zero) — never a silent default.

use std::fmt;

pub const USAGE: &str = "usage: perfbench --workload <survey_tcp|wide_scan|churn_cold> \
--seed <u64> [--seconds <1..=600>] [--trace <0|1>]";

/// The benchmark's workloads (see `WORKLOADS.md` for sizes and reasons).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SurveyTcp,
    WideScan,
    ChurnCold,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::SurveyTcp, Workload::WideScan, Workload::ChurnCold];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SurveyTcp => "survey_tcp",
            Workload::WideScan => "wide_scan",
            Workload::ChurnCold => "churn_cold",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Checked arguments of one benchmark run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: u64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// Default `--seconds`: the run length the benchmark's bounds were set on.
pub const DEFAULT_SECONDS: u64 = 20;

pub fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => seed = Some(number(flag, value()?)?),
            "--seconds" => {
                seconds = number(flag, value()?)?;
                if !(1..=600).contains(&seconds) {
                    return Err(format!("--seconds must be in 1..=600, got {seconds}"));
                }
            }
            "--trace" => {
                trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn number(flag: &str, text: &str) -> Result<u64, String> {
    text.parse()
        .map_err(|_| format!("{flag} expects a non-negative integer, got {text:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &str) -> Result<Args, String> {
        let owned: Vec<String> = text.split_whitespace().map(String::from).collect();
        parse(&owned)
    }

    #[test]
    fn parses_the_full_command_line() {
        let a = args("--workload wide_scan --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::WideScan,
                seed: 7,
                seconds: 12,
                trace: true
            }
        );
        let b = args("--seed 3 --workload survey_tcp").unwrap();
        assert_eq!((b.seconds, b.trace), (DEFAULT_SECONDS, false));
    }

    #[test]
    fn every_workload_name_round_trips() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }

    #[test]
    fn rejects_bad_input_instead_of_defaulting() {
        for bad in [
            "--workload nope --seed 1",
            "--workload survey_tcp --seed x1",
            "--workload survey_tcp --seed -1",
            "--workload survey_tcp --seed 1 --seconds 0",
            "--workload survey_tcp --seed 1 --seconds 2.5",
            "--workload survey_tcp --seed 1 --trace yes",
            "--workload survey_tcp --seed 1 --bogus 3",
            "--workload survey_tcp --seed",
            "--workload survey_tcp",
            "--seed 4",
        ] {
            assert!(args(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
