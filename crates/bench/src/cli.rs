//! Shared command-line parsing for the study bins.
//!
//! Every study binary (`headline`, `reliability`, `obsreport`, `ufs`,
//! `tenants`) draws its flags from one small vocabulary; each
//! used to carry its own copy-pasted `--key value` scanner. [`StudyArgs`]
//! is the one parser they all share, and each bin names the flags it
//! takes (the `*_FLAGS` constants):
//!
//! | flag               | meaning                                       | taken by |
//! |--------------------|-----------------------------------------------|----------|
//! | `--smoke`          | shrink the workload for CI                    | all but `headline` |
//! | `--seed N`         | workload / fault seed (per-bin default)       | `reliability`, `obsreport`, `ufs`, `tenants` |
//! | `--json PATH`      | write the versioned JSON document to `PATH`   | all |
//! | `--out PATH`       | write the auxiliary artifact (trace export)   | `obsreport` |
//! | `--baseline PATH`  | committed baseline to diff against            | `tenants` |
//!
//! Unknown flags, flags the bin does not take, and malformed values are
//! *errors*, not silent no-ops: a typoed `--sed 7`, or a `--seed 7` to a
//! bin with a fixed seed, must fail the invocation rather than quietly
//! run the default through a CI gate.

/// Flags `headline` takes.
pub const HEADLINE_FLAGS: &[&str] = &["--json"];
/// Flags `reliability` takes.
pub const RELIABILITY_FLAGS: &[&str] = &["--smoke", "--seed", "--json"];
/// Flags `obsreport` takes.
pub const OBSREPORT_FLAGS: &[&str] = &["--smoke", "--seed", "--json", "--out"];
/// Flags `ufs` takes.
pub const UFS_FLAGS: &[&str] = &["--smoke", "--seed", "--json"];
/// Flags `tenants` takes.
pub const TENANTS_FLAGS: &[&str] = &["--smoke", "--seed", "--json", "--baseline"];

/// Parsed study-bin flags. Every field is optional except `smoke`
/// (absent means off); the bins apply their own defaults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StudyArgs {
    /// `--smoke`: CI-sized workload.
    pub smoke: bool,
    /// `--seed N`.
    pub seed: Option<u64>,
    /// `--json PATH`.
    pub json: Option<String>,
    /// `--out PATH`.
    pub out: Option<String>,
    /// `--baseline PATH`.
    pub baseline: Option<String>,
}

impl StudyArgs {
    /// Parses a flag vector (the program name already stripped),
    /// accepting only the flags in `takes`.
    ///
    /// # Errors
    /// Returns a printable message naming the offending flag when a flag
    /// outside `takes` appears, a value-taking flag is missing its value,
    /// or a numeric value does not parse.
    pub fn parse(args: &[String], takes: &[&str]) -> Result<StudyArgs, String> {
        let mut out = StudyArgs::default();
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].as_str();
            if !takes.contains(&flag) {
                return Err(format!(
                    "unknown flag {flag:?}: this bin takes {}",
                    takes.join(" ")
                ));
            }
            let value = |i: usize| -> Result<&String, String> {
                args.get(i + 1)
                    .ok_or_else(|| format!("{flag} requires a value"))
            };
            match flag {
                "--smoke" => out.smoke = true,
                "--seed" => {
                    out.seed =
                        Some(value(i)?.parse().map_err(|_| {
                            format!("--seed wants an integer, got {:?}", args[i + 1])
                        })?);
                    i += 1;
                }
                "--json" => {
                    out.json = Some(value(i)?.clone());
                    i += 1;
                }
                "--out" => {
                    out.out = Some(value(i)?.clone());
                    i += 1;
                }
                "--baseline" => {
                    out.baseline = Some(value(i)?.clone());
                    i += 1;
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
            i += 1;
        }
        Ok(out)
    }

    /// Parses the current process's arguments (skipping the program
    /// name). Same error contract as [`StudyArgs::parse`].
    ///
    /// # Errors
    /// See [`StudyArgs::parse`].
    pub fn from_env(takes: &[&str]) -> Result<StudyArgs, String> {
        let args: Vec<String> = std::env::args().skip(1).collect();
        StudyArgs::parse(&args, takes)
    }

    /// The seed, or the bin's default.
    #[must_use]
    pub fn seed_or(&self, default: u64) -> u64 {
        self.seed.unwrap_or(default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every flag the parser knows.
    const ALL: &[&str] = &["--smoke", "--seed", "--json", "--out", "--baseline"];

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn empty_args_are_all_defaults() {
        let a = StudyArgs::parse(&[], ALL).expect("empty is fine");
        assert_eq!(a, StudyArgs::default());
        assert!(!a.smoke);
        assert_eq!(a.seed_or(42), 42);
    }

    #[test]
    fn every_flag_parses() {
        let a = StudyArgs::parse(
            &argv(&[
                "--smoke",
                "--seed",
                "7",
                "--json",
                "a.json",
                "--out",
                "b.trace",
                "--baseline",
                "results/B.json",
            ]),
            ALL,
        )
        .expect("all flags valid");
        assert!(a.smoke);
        assert_eq!(a.seed, Some(7));
        assert_eq!(a.seed_or(42), 7);
        assert_eq!(a.json.as_deref(), Some("a.json"));
        assert_eq!(a.out.as_deref(), Some("b.trace"));
        assert_eq!(a.baseline.as_deref(), Some("results/B.json"));
    }

    #[test]
    fn order_does_not_matter() {
        let a = StudyArgs::parse(&argv(&["--json", "x", "--smoke"]), ALL).expect("valid");
        let b = StudyArgs::parse(&argv(&["--smoke", "--json", "x"]), ALL).expect("valid");
        assert_eq!(a, b);
    }

    #[test]
    fn unknown_flags_are_errors() {
        let err = StudyArgs::parse(&argv(&["--sed", "7"]), ALL).expect_err("typo must fail");
        assert!(err.contains("--sed"), "message names the flag: {err}");
    }

    #[test]
    fn missing_values_are_errors() {
        for flag in ["--seed", "--json", "--out", "--baseline"] {
            let err = StudyArgs::parse(&argv(&[flag]), ALL).expect_err("dangling flag must fail");
            assert!(err.contains(flag), "message names {flag}: {err}");
        }
    }

    #[test]
    fn malformed_numbers_are_errors() {
        assert!(StudyArgs::parse(&argv(&["--seed", "seven"]), ALL).is_err());
        // The seed is an integer: a fractional value must be rejected loudly.
        assert!(StudyArgs::parse(&argv(&["--seed", "2.5"]), ALL).is_err());
    }

    /// Each bin accepts exactly its own flags: anything else from the
    /// vocabulary, or the retired `--tolerance`, is an error naming the
    /// flag, before any value is read.
    #[test]
    fn each_bin_rejects_the_flags_it_ignores() {
        let bins: [(&str, &[&str]); 5] = [
            ("headline", HEADLINE_FLAGS),
            ("reliability", RELIABILITY_FLAGS),
            ("obsreport", OBSREPORT_FLAGS),
            ("ufs", UFS_FLAGS),
            ("tenants", TENANTS_FLAGS),
        ];
        for (bin, takes) in bins {
            for &flag in ALL.iter().chain(&["--tolerance"]) {
                let args = if flag == "--smoke" {
                    argv(&[flag])
                } else {
                    argv(&[flag, "5"])
                };
                let parsed = StudyArgs::parse(&args, takes);
                if takes.contains(&flag) {
                    assert!(parsed.is_ok(), "{bin} takes {flag}: {parsed:?}");
                } else {
                    let err = parsed.expect_err("an ignored flag must fail");
                    assert!(err.contains(flag), "{bin}: message names {flag}: {err}");
                }
            }
        }
        // The cases that used to exit 0 with the flag ignored.
        assert!(StudyArgs::parse(&argv(&["--seed", "7"]), HEADLINE_FLAGS).is_err());
        let ufs = argv(&["--baseline", "X", "--tolerance", "5", "--out", "Y"]);
        assert!(StudyArgs::parse(&ufs, UFS_FLAGS).is_err());
        let reliability = argv(&["--out", "Y", "--baseline", "Z"]);
        assert!(StudyArgs::parse(&reliability, RELIABILITY_FLAGS).is_err());
    }
}
