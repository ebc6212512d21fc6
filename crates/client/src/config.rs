//! The protocol registry: one constructor per [`Method`], resolved once.
//!
//! Before this crate, every front end re-implemented a `match method`
//! block to build per-user client state. [`ClientConfig`] resolves a
//! method's full client-side parameterization (UE chain, LOLOHA `g`,
//! dBitFlipPM `(b, d)`) exactly as `ldp_runtime::ShardedAggregator` does
//! for the server side, and [`ClientConfig::build_state`] is the single
//! registry-driven constructor everything dispatches through.

use crate::state::{ClientState, DBitState, LolohaState};
use crate::store::{CheckpointMeta, ClientStoreError};
use ldp_hash::CarterWegman;
use ldp_longitudinal::{DBitFlipClient, LgrrClient, LongitudinalUeClient};
use ldp_primitives::error::ParamError;
use ldp_rand::LdpRng;
use ldp_runtime::{dbit_buckets, Method};
use loloha::{LolohaClient, LolohaParams};

/// Registry tag for a custom LOLOHA parameterization (no [`Method`]).
const CUSTOM_LOLOHA_TAG: u8 = 255;

/// A resolved client-side protocol configuration: everything needed to
/// construct one user's [`ClientState`] except the user's RNG stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientConfig {
    method: Option<Method>,
    k: u64,
    eps_inf: f64,
    eps_first: f64,
    loloha: Option<LolohaParams>,
    dbit: Option<(u32, u32)>,
}

impl ClientConfig {
    /// Resolves `method` over domain `[0, k)` at budgets
    /// `0 < eps_first < eps_inf` — the same parameter resolution as
    /// `ShardedAggregator::for_method_obs`, so client and server always agree.
    pub fn for_method(
        method: Method,
        k: u64,
        eps_inf: f64,
        eps_first: f64,
    ) -> Result<Self, ParamError> {
        let (loloha, dbit) = match method {
            Method::Rappor | Method::LOsue | Method::LOue | Method::LSoue | Method::LGrr => {
                (None, None)
            }
            Method::BiLoloha => (Some(LolohaParams::bi(eps_inf, eps_first)?), None),
            Method::OLoloha => (Some(LolohaParams::optimal(eps_inf, eps_first)?), None),
            Method::OneBitFlip | Method::BBitFlip => {
                let b = dbit_buckets(k);
                let d = if method == Method::OneBitFlip { 1 } else { b };
                (None, Some((b, d)))
            }
        };
        Ok(Self {
            method: Some(method),
            k,
            eps_inf,
            eps_first,
            loloha,
            dbit,
        })
    }

    /// A custom LOLOHA deployment (bespoke `g` chosen outside the
    /// [`Method`] registry — the CLI's and the examples' path).
    pub fn for_loloha(k: u64, params: LolohaParams) -> Self {
        Self {
            method: None,
            k,
            eps_inf: params.eps_inf(),
            eps_first: params.eps_first(),
            loloha: Some(params),
            dbit: None,
        }
    }

    /// The registry method, when the config came from one.
    pub fn method(&self) -> Option<Method> {
        self.method
    }

    /// A static label for this configuration's protocol, suitable as a
    /// telemetry label (metric labels must be `&'static str` — see
    /// `ldp_obs`). Bespoke LOLOHA parameterizations built through
    /// [`Self::for_loloha`] share one label.
    pub fn method_label(&self) -> &'static str {
        match self.method {
            Some(m) => m.name(),
            None => "LOLOHA (custom)",
        }
    }

    /// Input domain size.
    pub fn k(&self) -> u64 {
        self.k
    }

    /// Builds one user's client state from the registry — the single
    /// dispatch point that replaced the per-front-end `match` blocks.
    /// Construction may draw from `rng` (LOLOHA samples its hash function,
    /// dBitFlipPM its bucket positions), which is why restoring a
    /// checkpoint re-derives the same `(seed, user)` streams.
    pub fn build_state(&self, rng: &mut LdpRng) -> Result<Box<dyn ClientState>, ParamError> {
        match self.method {
            Some(Method::Rappor | Method::LOsue | Method::LOue | Method::LSoue) => {
                let chain = self
                    .method
                    .and_then(|m| m.ue_chain())
                    .expect("UE-chained method");
                Ok(Box::new(LongitudinalUeClient::new(
                    chain,
                    self.k,
                    self.eps_inf,
                    self.eps_first,
                )?))
            }
            Some(Method::LGrr) => Ok(Box::new(LgrrClient::new(
                self.k,
                self.eps_inf,
                self.eps_first,
            )?)),
            Some(Method::BiLoloha | Method::OLoloha) | None => {
                let params = self.loloha.expect("resolved for LOLOHA configs");
                let family =
                    CarterWegman::new(params.g()).ok_or(ParamError::InvalidG { g: params.g() })?;
                let client = LolohaClient::new(&family, self.k, params, rng)?;
                Ok(Box::new(LolohaState::new(client)))
            }
            Some(Method::OneBitFlip | Method::BBitFlip) => {
                let (b, d) = self.dbit.expect("resolved for dBitFlip configs");
                let client = DBitFlipClient::new(self.k, b, d, self.eps_inf, rng)?;
                Ok(Box::new(DBitState::new(client)))
            }
        }
    }

    /// The checkpoint-header fingerprint of this configuration under
    /// `seed`.
    pub fn meta(&self, seed: u64) -> CheckpointMeta {
        let (b, d) = self.dbit.unwrap_or((0, 0));
        CheckpointMeta {
            method_tag: self.method_tag(),
            k: self.k,
            g: self.loloha.map_or(0, |p| p.g()),
            b,
            d,
            eps_inf: self.eps_inf,
            eps_first: self.eps_first,
            seed,
        }
    }

    /// Verifies a checkpoint header against this configuration and `seed`;
    /// any disagreement makes the checkpoint foreign.
    pub fn verify_meta(&self, meta: &CheckpointMeta, seed: u64) -> Result<(), ClientStoreError> {
        let want = self.meta(seed);
        if meta.method_tag != want.method_tag {
            return Err(ClientStoreError::Mismatch("method differs"));
        }
        if meta.k != want.k {
            return Err(ClientStoreError::Mismatch("domain size differs"));
        }
        if (meta.g, meta.b, meta.d) != (want.g, want.b, want.d) {
            return Err(ClientStoreError::Mismatch("reduced domain differs"));
        }
        if meta.eps_inf.to_bits() != want.eps_inf.to_bits()
            || meta.eps_first.to_bits() != want.eps_first.to_bits()
        {
            return Err(ClientStoreError::Mismatch("budgets differ"));
        }
        if meta.seed != want.seed {
            return Err(ClientStoreError::Mismatch("seed differs"));
        }
        Ok(())
    }

    fn method_tag(&self) -> u8 {
        // Pinned on-disk constants: the checkpoint format depends on
        // these values staying fixed forever. Never derive them from
        // enum ordering — reordering `Method::all()` must not be able to
        // silently re-tag existing checkpoint files.
        match self.method {
            Some(Method::Rappor) => 0,
            Some(Method::LOsue) => 1,
            Some(Method::LOue) => 2,
            Some(Method::LSoue) => 3,
            Some(Method::LGrr) => 4,
            Some(Method::BiLoloha) => 5,
            Some(Method::OLoloha) => 6,
            Some(Method::OneBitFlip) => 7,
            Some(Method::BBitFlip) => 8,
            None => CUSTOM_LOLOHA_TAG,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_rand::derive_rng;

    #[test]
    fn every_method_resolves_and_builds() {
        for method in Method::all() {
            let cfg = ClientConfig::for_method(method, 24, 2.0, 1.0).unwrap();
            let mut rng = derive_rng(1, 0);
            let state = cfg.build_state(&mut rng).unwrap();
            assert_eq!(state.privacy_spent(), 0.0, "{method:?}");
            assert_eq!(state.distinct_classes(), 0, "{method:?}");
        }
    }

    #[test]
    fn method_tags_are_pinned_on_disk_constants() {
        // These exact values are baked into every checkpoint file ever
        // written; changing one requires a format VERSION bump.
        let expected = [
            (Method::Rappor, 0u8),
            (Method::LOsue, 1),
            (Method::LOue, 2),
            (Method::LSoue, 3),
            (Method::LGrr, 4),
            (Method::BiLoloha, 5),
            (Method::OLoloha, 6),
            (Method::OneBitFlip, 7),
            (Method::BBitFlip, 8),
        ];
        for (method, tag) in expected {
            let got = ClientConfig::for_method(method, 24, 2.0, 1.0)
                .unwrap()
                .meta(0)
                .method_tag;
            assert_eq!(got, tag, "{method:?} re-tagged: bump the format version");
        }
        let custom = ClientConfig::for_loloha(24, LolohaParams::bi(2.0, 1.0).unwrap())
            .meta(0)
            .method_tag;
        assert_eq!(custom, 255);
    }

    #[test]
    fn verify_meta_rejects_foreign_headers() {
        let cfg = ClientConfig::for_method(Method::Rappor, 24, 2.0, 1.0).unwrap();
        assert!(cfg.verify_meta(&cfg.meta(7), 7).is_ok());
        let mut m = cfg.meta(7);
        m.seed = 8;
        assert!(matches!(
            cfg.verify_meta(&m, 7),
            Err(ClientStoreError::Mismatch("seed differs"))
        ));
        let mut m = cfg.meta(7);
        m.k = 25;
        assert!(matches!(
            cfg.verify_meta(&m, 7),
            Err(ClientStoreError::Mismatch("domain size differs"))
        ));
        let other = ClientConfig::for_method(Method::LGrr, 24, 2.0, 1.0).unwrap();
        assert!(cfg.verify_meta(&other.meta(7), 7).is_err());
    }

    #[test]
    fn bad_budgets_are_rejected() {
        // LOLOHA budgets resolve eagerly; UE budgets resolve at build.
        assert!(ClientConfig::for_method(Method::BiLoloha, 24, 0.0, 0.0).is_err());
        let cfg = ClientConfig::for_method(Method::Rappor, 24, 1.0, 1.0).unwrap();
        assert!(cfg.build_state(&mut derive_rng(2, 0)).is_err());
    }
}
