//! Regenerates the golden-state snapshot corpus.
//!
//! Runs each of the fifteen `ehs_verify::snapcorpus` entries from cold to
//! the fixed capture cycle and rewrites
//! `tests/corpus/snapshots/*.json`. Generation is fully deterministic,
//! so rerunning without simulator changes is a no-op (byte-identical
//! files); after an *intentional* behaviour change, run this and commit
//! the resulting diff alongside the change.

use ehs_verify::{run_parallel, snapcorpus};

fn main() {
    let dir = snapcorpus::corpus_dir();
    std::fs::create_dir_all(&dir).expect("create snapshot corpus dir");
    let specs = snapcorpus::specs();
    let rendered = run_parallel(&specs, |spec| {
        (
            spec.file_name(),
            snapcorpus::render(&snapcorpus::generate(spec)),
        )
    });
    for (name, text) in rendered {
        let path = dir.join(&name);
        let changed = std::fs::read_to_string(&path).map_or(true, |old| old != text);
        std::fs::write(&path, text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        println!(
            "{} {}",
            if changed { "wrote " } else { "same  " },
            path.display()
        );
    }
}
