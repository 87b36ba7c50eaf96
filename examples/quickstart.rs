//! Quickstart: build a tiny taxpayer network by hand, run the pipeline,
//! and read off the suspicious groups.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use tpiin::prelude::*;

fn main() -> Result<(), Error> {
    // 1. Register the raw facts gathered from the data sources.
    let mut registry = SourceRegistry::new();

    // Two company bosses who happen to be siblings, plus an unrelated one.
    let alice = registry.add_person("Alice", RoleSet::of(&[Role::Ceo]));
    let bob = registry.add_person("Bob", RoleSet::of(&[Role::Ceo, Role::Chairman]));
    let carol = registry.add_person("Carol", RoleSet::of(&[Role::Ceo]));
    registry.add_interdependence(alice, bob, InterdependenceKind::Kinship);

    // Three companies; Alice's holding fully owns the factory.
    let holding = registry.add_company("HoldingCo");
    let factory = registry.add_company("FactoryCo");
    let trader = registry.add_company("TraderCo");
    for (person, company) in [(alice, holding), (bob, trader), (carol, factory)] {
        registry.add_influence(InfluenceRecord {
            person,
            company,
            kind: InfluenceKind::CeoOf,
            is_legal_person: true,
        });
    }
    registry.add_investment(InvestmentRecord {
        investor: holding,
        investee: factory,
        share: 1.0,
    });

    // The factory sells its whole output to the trader — an
    // interest-affiliated transaction hiding behind the kinship.
    registry.add_trading(TradingRecord {
        seller: factory,
        buyer: trader,
        volume: 2_000_000.0,
    });
    // A regular arm's-length sale for contrast.
    let outsider = registry.add_company("OutsiderCo");
    let dan = registry.add_person("Dan", RoleSet::of(&[Role::Ceo]));
    registry.add_influence(InfluenceRecord {
        person: dan,
        company: outsider,
        kind: InfluenceKind::CeoOf,
        is_legal_person: true,
    });
    registry.add_trading(TradingRecord {
        seller: factory,
        buyer: outsider,
        volume: 500_000.0,
    });

    // 2. Fuse into a TPIIN and mine suspicious groups, in one chain.
    let out = Pipeline::from_registry(&registry).run()?;

    println!("fused network:\n{}\n", out.report.summary());
    println!(
        "{} of {} trading relationships are suspicious ({:.1}%)",
        out.groups.suspicious_trading_arcs.len(),
        out.groups.total_trading_arcs,
        out.groups.suspicious_percentage()
    );
    for group in &out.groups.groups {
        println!("- {}", group.explain(&out.tpiin));
        let score = score_group(&out.tpiin, group);
        println!(
            "  chain strength {:.2}, {:.0} at stake -> score {:.0}",
            score.chain_strength, score.trade_volume, score.score
        );
    }
    Ok(())
}
