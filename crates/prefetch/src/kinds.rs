//! Named prefetcher kinds used by experiment configurations
//! (Tables 3 and 4 of the paper).

use serde::{Deserialize, Serialize};

use crate::{
    AnyPrefetcher, BestOffsetPrefetcher, GhbPrefetcher, MarkovPrefetcher, SequentialPrefetcher,
    StridePrefetcher, TifsPrefetcher,
};

/// Instruction-prefetcher selection (Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum InstPrefetcherKind {
    /// No instruction prefetching.
    None,
    /// Next-N-line sequential — the paper's default.
    Sequential,
    /// Markov correlation prefetcher.
    Markov,
    /// Temporal instruction fetch streaming.
    Tifs,
}

impl InstPrefetcherKind {
    /// The kinds evaluated in Table 3.
    pub const TABLE3: [InstPrefetcherKind; 3] = [
        InstPrefetcherKind::Sequential,
        InstPrefetcherKind::Markov,
        InstPrefetcherKind::Tifs,
    ];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            InstPrefetcherKind::None => "none",
            InstPrefetcherKind::Sequential => "Sequential",
            InstPrefetcherKind::Markov => "Markov",
            InstPrefetcherKind::Tifs => "TIFS",
        }
    }

    /// Instantiates the prefetcher with the given natural degree, as the
    /// enum-dispatched [`AnyPrefetcher`] the simulator's hot loop uses.
    pub fn build_any(self, degree: u32) -> AnyPrefetcher {
        match self {
            InstPrefetcherKind::None => AnyPrefetcher::None,
            InstPrefetcherKind::Sequential => {
                AnyPrefetcher::Sequential(SequentialPrefetcher::new(degree))
            }
            InstPrefetcherKind::Markov => AnyPrefetcher::Markov(MarkovPrefetcher::new(degree)),
            InstPrefetcherKind::Tifs => AnyPrefetcher::Tifs(TifsPrefetcher::new(degree)),
        }
    }
}

/// Data-prefetcher selection (Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum DataPrefetcherKind {
    /// No data prefetching.
    None,
    /// PC-indexed stride — the paper's default.
    Stride,
    /// Global history buffer (G/DC).
    Ghb,
    /// Best-offset.
    BestOffset,
}

impl DataPrefetcherKind {
    /// The kinds evaluated in Table 4.
    pub const TABLE4: [DataPrefetcherKind; 3] = [
        DataPrefetcherKind::Stride,
        DataPrefetcherKind::Ghb,
        DataPrefetcherKind::BestOffset,
    ];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            DataPrefetcherKind::None => "none",
            DataPrefetcherKind::Stride => "Stride",
            DataPrefetcherKind::Ghb => "GHB",
            DataPrefetcherKind::BestOffset => "BO",
        }
    }

    /// Instantiates the prefetcher with the given natural degree, as the
    /// enum-dispatched [`AnyPrefetcher`] the simulator's hot loop uses.
    pub fn build_any(self, degree: u32) -> AnyPrefetcher {
        match self {
            DataPrefetcherKind::None => AnyPrefetcher::None,
            DataPrefetcherKind::Stride => AnyPrefetcher::Stride(StridePrefetcher::new(degree)),
            DataPrefetcherKind::Ghb => AnyPrefetcher::Ghb(GhbPrefetcher::new(degree)),
            DataPrefetcherKind::BestOffset => {
                AnyPrefetcher::BestOffset(BestOffsetPrefetcher::new(degree))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Prefetcher;

    #[test]
    fn build_matches_names() {
        assert_eq!(
            InstPrefetcherKind::Sequential.build_any(2).name(),
            "sequential"
        );
        assert_eq!(InstPrefetcherKind::Markov.build_any(2).name(), "markov");
        assert_eq!(InstPrefetcherKind::Tifs.build_any(2).name(), "tifs");
        assert_eq!(InstPrefetcherKind::None.build_any(2).name(), "none");
        assert_eq!(DataPrefetcherKind::Stride.build_any(2).name(), "stride");
        assert_eq!(DataPrefetcherKind::Ghb.build_any(2).name(), "ghb");
        assert_eq!(
            DataPrefetcherKind::BestOffset.build_any(2).name(),
            "best-offset"
        );
    }

    #[test]
    fn serde_round_trip() {
        let k = InstPrefetcherKind::Tifs;
        let s = serde_json::to_string(&k).unwrap();
        assert_eq!(s, "\"tifs\"");
        let back: InstPrefetcherKind = serde_json::from_str(&s).unwrap();
        assert_eq!(back, k);
        let d = DataPrefetcherKind::BestOffset;
        assert_eq!(serde_json::to_string(&d).unwrap(), "\"best-offset\"");
    }
}
