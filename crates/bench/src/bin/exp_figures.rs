//! E1–E4: render the protocol schedules of Figures 1–4 (ASCII
//! schedules, Mermaid sequence diagrams, raw event streams, cost
//! metrics) from the typed `acp-obs` event stream into
//! `results/figures/`.
//!
//! ```sh
//! cargo run -p acp-bench --bin exp_figures
//! ```
//!
//! The files are byte-stable across runs and thread counts (pinned by
//! the `obs_figures` golden test and the `scripts/verify.sh` drift
//! check). The same eight schedules in an older text format are frozen
//! in `results/frozen/exp_figures.txt`.

use acp_bench::default_threads;
use acp_bench::figures::render_paper_figures;
use std::path::Path;

fn main() {
    // Render the observability-layer figure set into results/figures/.
    let arts = render_paper_figures(default_threads());
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/figures");
    std::fs::create_dir_all(&dir).expect("create results/figures");
    for (name, contents) in &arts.files {
        std::fs::write(dir.join(name), contents).expect("write figure");
    }
    eprintln!(
        "wrote {} figure artifacts to {}",
        arts.files.len(),
        dir.display()
    );
}
