"""Desk-scale laboratory for spectral gaps, growth and congruence gluing in
SL2(Z/qZ) x SL2(Z/qZ).

Modules:
    factored   exact arithmetic on factored moduli
    sl2        matrix algebra in SL2(Z/qZ), pairs, Lie(SL2)
    packed     vectorized pair-group engine (int64-coded elements)
    measure    finitely supported measures, convolution, pushforward
    eigen      in-repo symmetric eigensolvers (dense oracle + Lanczos)
    spectral   Cayley operators, second eigenvalues, Cheeger constants
    walks      random-walk non-concentration harness
    growth     product-set growth, congruence covers, bounded generation
    addcomb    sumset covering oracles over Z/qZ
    approxhom  approximate-homomorphism dichotomy
    commutator congruence identities, box amplification, sections
    glue       the modulus-gluing pipeline
    cli        experiment runner (``sl2lab`` entry point)
"""

__version__ = "0.1.0"
