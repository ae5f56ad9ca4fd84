//! The `apan` binary end to end: `eval` of a checkpoint written by
//! `train` is evaluation only — repeatable, and the checkpoint is left
//! as it was. (That the replay behind it touches no parameter is
//! `apan_core::train`'s own test; `scripts/cli_smoke.sh` covers the
//! remaining subcommands.)

use std::process::Command;

/// Runs `apan <args>` on a tiny synthetic stream; returns its stdout.
fn apan(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_apan"))
        .args(args)
        .args(["--dataset", "wikipedia", "--scale", "0.003"])
        .output()
        .expect("apan runs");
    assert!(
        out.status.success(),
        "apan {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn eval_is_repeatable_and_leaves_the_checkpoint_alone() {
    let ckpt = std::env::temp_dir().join(format!("apan_cli_{}.ckpt", std::process::id()));
    let path = ckpt.to_str().expect("utf-8 temp path");

    apan(&["train", "--epochs", "1", "--checkpoint", path]);
    let trained = std::fs::read(&ckpt).expect("train wrote the checkpoint");

    let first = apan(&["eval", "--checkpoint", path]);
    let second = apan(&["eval", "--checkpoint", path]);
    let after = std::fs::read(&ckpt).expect("checkpoint still there");
    std::fs::remove_file(&ckpt).ok();

    assert!(first.contains("test AP"), "unexpected eval output: {first}");
    assert_eq!(first, second, "two evals of one checkpoint disagree");
    assert!(trained == after, "eval changed the checkpoint");
}
