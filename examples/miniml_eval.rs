//! Mini-ML evaluation through the metalanguage (experiment E8): a
//! call-by-value interpreter whose *entire binding machinery* —
//! substitution for `let`, β for application, unrolling for `fix`,
//! branch instantiation for `case` — is metalanguage β-reduction, and
//! an environment machine over the same encoding that substitutes only
//! to read its value back.
//!
//! Run with `cargo run --example miniml_eval`.

use hoas::langs::miniml::{self, Exp};
use hoas::langs::miniml_types;
use hoas::rewrite::rulesets::miniml_opt;
use hoas::rewrite::Engine;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // fact 5 with fact/mul/add all defined via fix inside the language.
    let prog = Exp::app(miniml::fact_fn(), Exp::num(5));
    println!("program: {prog}");
    // The object language's own type discipline (HM + let-polymorphism).
    println!("type:    {}", miniml_types::infer(&prog)?);
    println!("fact:    {}\n", miniml_types::infer(&miniml::fact_fn())?);

    // Reject an ill-typed program before running anything.
    assert!(miniml_types::infer(&Exp::app(Exp::Z, Exp::Z)).is_err());

    // Native evaluator: hand-written capture-avoiding substitution.
    let t0 = Instant::now();
    let mut fuel = 10_000_000;
    let native = miniml::eval_native(&prog, &mut fuel)?;
    let native_time = t0.elapsed();

    // HOAS evaluator: substitution = β (hoas_core::normalize::happly).
    let encoded = miniml::encode(&prog)?;
    let t0 = Instant::now();
    let mut beta_fuel = 10_000_000;
    let beta_value = miniml::eval_beta(&encoded, &mut beta_fuel)?;
    let beta_time = t0.elapsed();
    let beta = miniml::decode(&beta_value)?;

    // HOAS machine: the same encoding under an environment of values.
    let t0 = Instant::now();
    let mut fuel = 10_000_000;
    let hoas_value = miniml::eval_hoas(&encoded, &mut fuel)?;
    let hoas_time = t0.elapsed();
    let hoas = miniml::decode(&hoas_value)?;
    // Same value term, same fuel spent.
    assert_eq!(hoas_value, beta_value);
    assert_eq!(fuel, beta_fuel);

    // Environment machine (closures; the production-interpreter yardstick).
    let t0 = Instant::now();
    let mut fuel = 10_000_000;
    let env_value = miniml::eval_env(&prog, &mut fuel)?;
    let env_time = t0.elapsed();

    println!(
        "native evaluator: {} ({native_time:?})",
        native.as_num().unwrap()
    );
    println!(
        "HOAS β:           {} ({beta_time:?})",
        beta.as_num().unwrap()
    );
    println!(
        "HOAS machine:     {} ({hoas_time:?})",
        hoas.as_num().unwrap()
    );
    println!(
        "env machine:      {} ({env_time:?})",
        env_value.as_num().unwrap()
    );
    assert_eq!(native.as_num(), beta.as_num());
    assert_eq!(native.as_num(), hoas.as_num());
    assert_eq!(native.as_num(), env_value.as_num());
    assert_eq!(native.as_num(), Some(120));

    // Compile-time simplification with the Mini-ML rule set.
    let sig = miniml::signature();
    let rules = miniml_opt::rules(sig)?;
    let engine = Engine::new(sig, &rules);
    let clunky = Exp::let_(
        "unused",
        Exp::num(99),
        Exp::case(
            Exp::num(2),
            Exp::Z,
            "p",
            Exp::app(Exp::lam("x", Exp::s(Exp::var("x"))), Exp::var("p")),
        ),
    );
    println!("\nbefore simplification: {clunky}");
    let out = engine.normalize(&miniml::exp(), &miniml::encode(&clunky)?)?;
    let simplified = miniml::decode(&out.term)?;
    println!(
        "after  simplification: {simplified}   (rules: {})",
        out.applied.join(", ")
    );
    let mut fuel = 1_000_000;
    assert_eq!(
        miniml::eval_native(&clunky, &mut fuel)?.as_num(),
        simplified.as_num(),
        "simplification computed the same value statically"
    );
    Ok(())
}
