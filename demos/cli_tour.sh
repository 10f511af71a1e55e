#!/usr/bin/env bash
# Tour of the command-line interface over the shipped sample matrices.
# Run from the repository root after `pip install -e .`.
set -euo pipefail
cd "$(dirname "$0")/.."

run() { echo; echo "\$ $*"; "$@"; }

# the command must exit 1 with exactly one error: line on stderr, which is
# printed (a traceback exits 1 too)
refused() {
    local status=0 err
    err=$("$@" 2>&1 >/dev/null) || status=$?
    echo "$err"
    if [[ $status -ne 1 || $err != "error: "* || $err == *$'\n'* ]]; then
        echo "expected exit 1 and one error: line on stderr, got exit $status" >&2
        exit 1
    fi
}

run toricdual gale demos/data/segre2.json
run toricdual gale demos/data/random_26x100.txt
run toricdual check self-dual demos/data/family_alpha_1.json --verify
run toricdual check self-dual demos/data/segre6.json --verify
run toricdual check self-dual demos/data/twisted_cubic.txt --verify
run toricdual check self-dual demos/data/pyramid.txt --verify
run toricdual check self-dual demos/data/random_26x100.txt --format text
run toricdual check self-dual demos/data/wide_4x80.txt --format text
run toricdual check strong demos/data/strong_7x9.json
run toricdual check strong demos/data/strong_bigint.json
run toricdual check strong demos/data/halving_6x8.txt --verify --format text
run toricdual check facial demos/data/segre2.json --subset 0,2 --verify
# integer witnesses at 10^30: a positive dependency, then a Farkas certificate
run toricdual check facial demos/data/strong_bigint.json --subset 0 --verify
run toricdual check facial demos/data/strong_bigint.json --subset 0,1 --verify
run toricdual decompose demos/data/pyramid.txt
run toricdual decompose demos/data/random_26x100.txt
run toricdual circuits demos/data/twisted_cubic.txt
run toricdual flats demos/data/segre2.json
run toricdual smooth-certificate demos/data/missing_points.json
run toricdual smooth-certificate demos/data/segre2.json --format text
run toricdual smooth-certificate demos/data/random_26x100.txt --format text
run toricdual classify-hypersurface demos/data/segre2.json
run toricdual classify-hypersurface demos/data/random_26x100.txt
run toricdual generate segre --m 4
run toricdual generate lawrence --rows "1 1 1" --format text
run toricdual generate family-alpha --alpha 2
run toricdual generate family-dim --alphas 2,-2
run toricdual generate family-codim --m 2 --alphas 1,-1
run toricdual oracle crosscheck --seed 7 --count 200 --format text
echo
echo "pyramidal input is refused with the violated hypothesis named:"
refused toricdual check strong demos/data/pyramid.txt
echo
echo "a text entry is an optional sign and ASCII digits, so 1_0 is refused:"
printf '1 1 1\n0 1 1_0\n' | refused toricdual check self-dual -
