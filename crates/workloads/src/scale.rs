//! Workload scale factors.
//!
//! The paper's microbenchmark database is R = 1.2 M × 100-byte records with
//! `a2` uniform over 1..=40 000, and S = 40 000 records whose primary key
//! `a1` covers that domain, so each S row joins with ~30 R rows (§3.3).
//! Scaled-down variants keep every *ratio* (R:S = 30, a2 domain = |S|) so
//! selectivities and join fan-out behave identically; only absolute sizes
//! change. Tests use [`Scale::tiny`]; figure binaries default to
//! [`Scale::dev`] and accept `WDTG_SCALE=paper` for full size.

/// Picks among a workload's `[paper, dev, tiny]` sizes by `WDTG_SCALE` value
/// (`None`: the variable is unset, which means dev). The one resolver behind
/// every `from_name` in this crate, so no suite can fall back silently.
pub(crate) fn resolve_scale_name<T>(name: Option<&str>, sizes: [T; 3]) -> Result<T, String> {
    let [paper, dev, tiny] = sizes;
    match name {
        None | Some("dev") => Ok(dev),
        Some("paper") => Ok(paper),
        Some("tiny") => Ok(tiny),
        Some(other) => Err(format!(
            "unrecognized WDTG_SCALE value {other:?}: expected one of \
             \"paper\", \"dev\", \"tiny\" (or unset for dev)"
        )),
    }
}

/// Applies a `from_name` to the `WDTG_SCALE` environment variable, panicking
/// with its error on an unrecognized value.
pub(crate) fn scale_from_env<T>(from_name: fn(Option<&str>) -> Result<T, String>) -> T {
    let var = std::env::var("WDTG_SCALE").ok();
    from_name(var.as_deref()).unwrap_or_else(|e| panic!("{e}"))
}

/// Dataset sizing for the microbenchmark suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Rows in R.
    pub r_records: u64,
    /// Rows in S (= the `a2` key domain).
    pub s_records: u64,
    /// Record size in bytes (multiple of 4; the paper uses 100 and sweeps
    /// 20–200 in §5.2).
    pub record_bytes: u32,
}

impl Scale {
    /// The paper's full-size database (1.2 M × 100 B; 40 K in S).
    pub fn paper() -> Scale {
        Scale {
            r_records: 1_200_000,
            s_records: 40_000,
            record_bytes: 100,
        }
    }

    /// Default experiment scale: 1/12 of the paper (100 K rows), preserving
    /// all ratios. Figures keep their shape; runs take seconds.
    pub fn dev() -> Scale {
        Scale {
            r_records: 100_020,
            s_records: 3_334,
            record_bytes: 100,
        }
    }

    /// Unit/integration-test scale.
    pub fn tiny() -> Scale {
        Scale {
            r_records: 12_000,
            s_records: 400,
            record_bytes: 100,
        }
    }

    /// Resolves a scale name: `None` (variable unset) means [`Scale::dev`];
    /// `"paper"`, `"dev"` and `"tiny"` name their scales; anything else is an
    /// error naming the value and the three choices, never a silent `dev` —
    /// `WDTG_SCALE=papr` must not publish dev-scale numbers as the
    /// paper-scale capture.
    pub fn from_name(name: Option<&str>) -> Result<Scale, String> {
        resolve_scale_name(name, [Scale::paper(), Scale::dev(), Scale::tiny()])
    }

    /// Reads `WDTG_SCALE` (`paper`/`dev`/`tiny`; unset means `dev`).
    ///
    /// # Panics
    /// Panics on an unrecognized value — see [`Scale::from_name`].
    pub fn from_env() -> Scale {
        scale_from_env(Scale::from_name)
    }

    /// Same scale with a different record size (the §5.2 record-size sweep).
    pub fn with_record_bytes(mut self, bytes: u32) -> Scale {
        self.record_bytes = bytes;
        self
    }

    /// The `a2` domain (1..=domain), which equals |S| so the join fan-out is
    /// |R| / |S| ≈ 30 like the paper's.
    pub fn a2_domain(&self) -> i32 {
        self.s_records as i32
    }

    /// Range bounds `(lo, hi)` for `a2 > lo AND a2 < hi` hitting the target
    /// selectivity, centered in the domain. Qualifying values are
    /// `lo+1 ..= hi-1`.
    ///
    /// Total over its whole input space, with the edge guarantees the sweep
    /// harnesses rely on: any `selectivity <= 0` (and NaN, which `clamp`
    /// would silently pass through and the `as` cast would silently turn
    /// into an empty range even for a full-scan *intent*) yields an exactly
    /// empty range; any `selectivity >= 1` yields exactly the full domain —
    /// at every table scale, including domains of 0 or 1 values where the
    /// old centering arithmetic had nothing to round against.
    pub fn selectivity_range(&self, selectivity: f64) -> (i32, i32) {
        let domain = self.a2_domain().max(0);
        // NaN fails both comparisons below and is treated as 0 explicitly
        // rather than falling out of `clamp` unchanged.
        let sel = if selectivity >= 1.0 {
            1.0
        } else if selectivity > 0.0 {
            selectivity
        } else {
            0.0
        };
        // Round the qualifying width, then force the edges to be exact:
        // floating-point rounding must never shave a value off a full scan
        // or leak one into an empty scan.
        let width = if sel <= 0.0 {
            0
        } else if sel >= 1.0 {
            domain
        } else {
            ((sel * domain as f64).round() as i32).clamp(0, domain)
        };
        let lo = (domain - width) / 2;
        (lo, lo + width + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_matches_section_3_3() {
        let s = Scale::paper();
        assert_eq!(s.r_records, 1_200_000);
        assert_eq!(s.s_records, 40_000);
        assert_eq!(s.record_bytes, 100);
        assert_eq!(s.a2_domain(), 40_000);
        // ~30 R rows per S row.
        assert_eq!(s.r_records / s.s_records, 30);
    }

    #[test]
    fn scale_names_resolve_and_typos_are_refused() {
        assert_eq!(Scale::from_name(None), Ok(Scale::dev()));
        assert_eq!(Scale::from_name(Some("paper")), Ok(Scale::paper()));
        assert_eq!(Scale::from_name(Some("dev")), Ok(Scale::dev()));
        assert_eq!(Scale::from_name(Some("tiny")), Ok(Scale::tiny()));
        // The regression case: a typo must not silently become dev.
        let err = Scale::from_name(Some("papr")).unwrap_err();
        for needle in ["papr", "paper", "dev", "tiny"] {
            assert!(err.contains(needle), "{err}");
        }
    }

    #[test]
    #[should_panic(expected = "unrecognized WDTG_SCALE value \"huge\"")]
    fn env_path_panics_with_the_resolver_error() {
        scale_from_env(|_| Scale::from_name(Some("huge")));
    }

    #[test]
    fn dev_scale_preserves_ratios() {
        let s = Scale::dev();
        assert_eq!(s.r_records / s.s_records, 30);
    }

    #[test]
    fn selectivity_ranges_hit_targets() {
        let s = Scale::paper();
        for sel in [0.0, 0.01, 0.05, 0.1, 0.5, 1.0] {
            let (lo, hi) = s.selectivity_range(sel);
            let qualifying = (hi - lo - 1).max(0) as f64;
            let got = qualifying / s.a2_domain() as f64;
            assert!((got - sel).abs() < 0.001, "sel {sel}: got {got}");
            assert!(lo >= 0 && hi <= s.a2_domain() + 1);
        }
    }

    /// Number of `a2` values qualifying under `scale.selectivity_range(sel)`.
    fn qualifying(scale: Scale, sel: f64) -> i32 {
        let (lo, hi) = scale.selectivity_range(sel);
        (hi - lo - 1).max(0)
    }

    #[test]
    fn edge_selectivities_are_exact_at_tiny_scales() {
        // Regression: the old arithmetic only guaranteed the 0.0/1.0 edges
        // at comfortable domains. They must be exact at *every* scale.
        for s_records in [0u64, 1, 2, 3, 7, 400] {
            let scale = Scale {
                r_records: s_records * 30,
                s_records,
                record_bytes: 20,
            };
            let domain = scale.a2_domain();
            assert_eq!(qualifying(scale, 0.0), 0, "|S|={s_records}: 0% not empty");
            assert_eq!(
                qualifying(scale, 1.0),
                domain,
                "|S|={s_records}: 100% not full"
            );
            let (lo, hi) = scale.selectivity_range(1.0);
            assert!(lo >= 0 && hi > lo, "|S|={s_records}: inverted range");
            // Qualifying values must lie inside the generated 1..=domain.
            assert!(
                lo >= 0 && hi <= domain + 1,
                "|S|={s_records}: out of domain"
            );
        }
    }

    #[test]
    fn out_of_domain_selectivities_clamp_to_the_edges() {
        let s = Scale::tiny();
        let domain = s.a2_domain();
        assert_eq!(qualifying(s, -0.5), 0);
        assert_eq!(qualifying(s, 1.5), domain);
        assert_eq!(qualifying(s, f64::NEG_INFINITY), 0);
        assert_eq!(qualifying(s, f64::INFINITY), domain);
        // NaN used to slip through `clamp` into the `as` cast; it must be
        // an explicit empty range, not an accident of cast saturation.
        assert_eq!(qualifying(s, f64::NAN), 0);
    }

    #[test]
    fn selectivity_width_is_monotone_in_the_target() {
        for s_records in [3u64, 40, 400] {
            let scale = Scale {
                r_records: s_records * 30,
                s_records,
                record_bytes: 20,
            };
            let mut prev = -1;
            for step in 0..=20 {
                let q = qualifying(scale, step as f64 / 20.0);
                assert!(
                    q >= prev,
                    "|S|={s_records}: width not monotone at step {step}"
                );
                prev = q;
            }
        }
    }
}
