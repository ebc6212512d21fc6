//! The longitudinal protocols the aggregation runtime can serve.
//!
//! This is the method registry shared by every front end (simulator, CLI,
//! bench harness): one variant per protocol of the paper's §5 evaluation,
//! plus the paper's bucket-count rule for dBitFlipPM.

use ldp_longitudinal::UeChain;

/// The longitudinal protocols evaluated in the paper (plus the two L-UE
/// chaining extensions from Arcolezi et al. \[5\]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// RAPPOR / L-SUE: SUE chained with SUE \[23\].
    Rappor,
    /// L-OSUE: OUE (PRR) chained with SUE (IRR) \[5\].
    LOsue,
    /// L-OUE: OUE chained with OUE (extension).
    LOue,
    /// L-SOUE: SUE chained with OUE (extension).
    LSoue,
    /// L-GRR: GRR chained with GRR \[5\].
    LGrr,
    /// BiLOLOHA: LOLOHA at g = 2 (privacy-tuned).
    BiLoloha,
    /// OLOLOHA: LOLOHA at the Eq. (6) optimal g (utility-tuned).
    OLoloha,
    /// 1BitFlipPM: dBitFlipPM with d = 1 (privacy-tuned) \[13\].
    OneBitFlip,
    /// bBitFlipPM: dBitFlipPM with d = b (utility-tuned) \[13\].
    BBitFlip,
}

impl Method {
    /// Display name matching the paper's figure legends.
    pub fn name(&self) -> &'static str {
        match self {
            Method::Rappor => "RAPPOR",
            Method::LOsue => "L-OSUE",
            Method::LOue => "L-OUE",
            Method::LSoue => "L-SOUE",
            Method::LGrr => "L-GRR",
            Method::BiLoloha => "BiLOLOHA",
            Method::OLoloha => "OLOLOHA",
            Method::OneBitFlip => "1BitFlipPM",
            Method::BBitFlip => "bBitFlipPM",
        }
    }

    /// Parses a method from its registry name, case-insensitively, with
    /// the CLI's historical aliases (`l-sue` for RAPPOR, the bare
    /// `1bitflip`/`bbitflip` forms). Every [`Method::name`] round-trips.
    pub fn from_name(name: &str) -> Option<Method> {
        Some(match name.to_ascii_lowercase().as_str() {
            "rappor" | "l-sue" => Method::Rappor,
            "l-osue" => Method::LOsue,
            "l-oue" => Method::LOue,
            "l-soue" => Method::LSoue,
            "l-grr" => Method::LGrr,
            "biloloha" => Method::BiLoloha,
            "ololoha" => Method::OLoloha,
            "1bitflip" | "1bitflippm" => Method::OneBitFlip,
            "bbitflip" | "bbitflippm" => Method::BBitFlip,
            _ => return None,
        })
    }

    /// The seven methods of Figs. 3–4.
    pub fn paper_set() -> [Method; 7] {
        [
            Method::BBitFlip,
            Method::LOsue,
            Method::OLoloha,
            Method::Rappor,
            Method::BiLoloha,
            Method::OneBitFlip,
            Method::LGrr,
        ]
    }

    /// Every variant, for exhaustive sweeps and invariance tests.
    pub fn all() -> [Method; 9] {
        [
            Method::Rappor,
            Method::LOsue,
            Method::LOue,
            Method::LSoue,
            Method::LGrr,
            Method::BiLoloha,
            Method::OLoloha,
            Method::OneBitFlip,
            Method::BBitFlip,
        ]
    }

    /// Whether the method is single-round (no IRR step): only dBitFlipPM.
    pub fn single_round(&self) -> bool {
        matches!(self, Method::OneBitFlip | Method::BBitFlip)
    }

    /// The aggregation dimension over the domain `[0, k)`: `k` for the
    /// k-binned protocols, [`dbit_buckets`]`(k)` for dBitFlipPM. The one
    /// place this rule lives; aggregators and remote workers that must
    /// agree on the dimension without building an aggregator both read it.
    pub fn dim(&self, k: u64) -> usize {
        if self.single_round() {
            dbit_buckets(k) as usize
        } else {
            k as usize
        }
    }

    /// The UE chain backing this method, if it is a UE-chained protocol.
    pub fn ue_chain(&self) -> Option<UeChain> {
        match self {
            Method::Rappor => Some(UeChain::SueSue),
            Method::LOsue => Some(UeChain::OueSue),
            Method::LOue => Some(UeChain::OueOue),
            Method::LSoue => Some(UeChain::SueOue),
            _ => None,
        }
    }
}

/// The paper's bucket choice for dBitFlipPM: `b = k` when `k ≤ 360`
/// (Syn, Adult), `b = ⌊k/4⌋` for the large census domains.
pub fn dbit_buckets(k: u64) -> u32 {
    if k <= 360 {
        k as u32
    } else {
        (k / 4) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper_legends() {
        assert_eq!(Method::Rappor.name(), "RAPPOR");
        assert_eq!(Method::BBitFlip.name(), "bBitFlipPM");
        assert_eq!(Method::OneBitFlip.name(), "1BitFlipPM");
    }

    #[test]
    fn every_name_parses_back_to_its_method() {
        for m in Method::all() {
            assert_eq!(Method::from_name(m.name()), Some(m), "{m:?}");
        }
        assert_eq!(Method::from_name("l-sue"), Some(Method::Rappor));
        assert_eq!(Method::from_name("1bitflip"), Some(Method::OneBitFlip));
        assert_eq!(Method::from_name("BBITFLIP"), Some(Method::BBitFlip));
        assert_eq!(Method::from_name("nope"), None);
    }

    #[test]
    fn paper_set_has_seven_methods() {
        let set = Method::paper_set();
        assert_eq!(set.len(), 7);
        assert!(!set.contains(&Method::LOue));
    }

    #[test]
    fn all_covers_paper_set_and_extensions() {
        let all = Method::all();
        assert_eq!(all.len(), 9);
        for m in Method::paper_set() {
            assert!(all.contains(&m), "{m:?}");
        }
        assert!(all.contains(&Method::LOue));
        assert!(all.contains(&Method::LSoue));
    }

    #[test]
    fn ue_chains_only_for_ue_methods() {
        assert_eq!(Method::Rappor.ue_chain(), Some(UeChain::SueSue));
        assert_eq!(Method::LOsue.ue_chain(), Some(UeChain::OueSue));
        assert_eq!(Method::LOue.ue_chain(), Some(UeChain::OueOue));
        assert_eq!(Method::LSoue.ue_chain(), Some(UeChain::SueOue));
        for m in [
            Method::LGrr,
            Method::BiLoloha,
            Method::OLoloha,
            Method::OneBitFlip,
            Method::BBitFlip,
        ] {
            assert_eq!(m.ue_chain(), None, "{m:?}");
        }
    }

    #[test]
    fn dim_matches_the_aggregator_for_every_method() {
        let reg = ldp_obs::MetricsRegistry::disabled();
        for k in [24u64, 1412] {
            for m in Method::all() {
                let agg = crate::ShardedAggregator::for_method_obs(m, k, 2.0, 1.0, 1, &reg)
                    .expect("valid cell");
                assert_eq!(m.dim(k), agg.dim(), "{m:?} at k = {k}");
            }
        }
    }

    #[test]
    fn dbit_bucket_rule() {
        assert_eq!(dbit_buckets(96), 96);
        assert_eq!(dbit_buckets(360), 360);
        assert_eq!(dbit_buckets(1412), 353);
        assert_eq!(dbit_buckets(1234), 308);
    }
}
