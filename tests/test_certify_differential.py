"""``certify`` on edited certificates, held to a dense check of the definition.

Each bundle is written to definition files and split.  Then single entries
of h in its certificate are edited, seeded from ``--seed``, and ``certify``
must accept the edited file exactly when ``oracles.is_splitting`` says that
h is still a splitting: bijective, with (h (x) id) psi = (id (x) Delta) h.
The check reads psi and Delta off the generated bundle, not the files.  h is
not unique, so an edit can give a genuine other splitting, which is accepted.
"""

import json
import random

from comodule_splitter.cli import main
from comodule_splitter.definitions import write_bundle
from comodule_splitter.generators import gen_binomial_truncation
from oracles import is_splitting

EDITS_PER_BUNDLE = 4


def test_certify_agrees_with_the_dense_check_on_edited_h(tmp_path, capsys, corpus, base_seed):
    rng = random.Random(base_seed + 211)
    bundles = [b for b in corpus if b.expected_outcome == "certified"]
    bundles += [gen_binomial_truncation(3, 9), gen_binomial_truncation(3, 27)]
    verdicts = []
    for b in bundles:
        write_bundle(b, str(tmp_path))
        comodule, fmap = (str(tmp_path / f"{b.name}.{kind}.json") for kind in ("comodule", "map"))
        cert = tmp_path / f"{b.name}.cert.json"
        assert main(["split", comodule, fmap, "--out", str(cert)]) == 0, b.name
        doc = json.loads(cert.read_text())
        psi, delta = b.comodule_algebra.base.psi, b.comodule_algebra.sigma.delta
        p, d1 = doc["p"], doc["p1_dim"]
        assert is_splitting(p, doc["h"], psi, delta, d1), b.name
        edited = tmp_path / f"{b.name}.edited.json"
        for _ in range(EDITS_PER_BUNDLE):
            h = [list(r) for r in doc["h"]]
            i, j = rng.randrange(len(h)), rng.randrange(len(h[0]))
            h[i][j] = (h[i][j] + rng.randrange(1, p)) % p
            edited.write_text(json.dumps(dict(doc, h=h)))
            want = is_splitting(p, h, psi, delta, d1)
            assert (main(["certify", str(edited), comodule, fmap]) == 0) == want, (b.name, i, j)
            verdicts.append(want)
    capsys.readouterr()
    assert len(verdicts) == EDITS_PER_BUNDLE * len(bundles) and not all(verdicts)
